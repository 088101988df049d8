(* The content-addressed cache key of the evaluation service is
   Strash.digest. These pins make a digest change an intentional,
   reviewed event (update the table alongside the serialization version
   or rewrite-rule change that caused it) instead of a silent cache
   split. *)

module Netlist = Nano_netlist.Netlist
module B = Nano_netlist.Netlist.Builder
module Strash = Nano_synth.Strash

let build_xor ~name () =
  let b = B.create ~name () in
  let x = B.input b "x" in
  let y = B.input b "y" in
  B.output b "o" (B.xor2 b x y);
  B.finish b

let test_deterministic () =
  let a = build_xor ~name:"a" () in
  Alcotest.(check string) "same value twice" (Netlist.digest a)
    (Netlist.digest a);
  let a' = build_xor ~name:"a" () in
  Alcotest.(check string) "rebuild matches" (Netlist.digest a)
    (Netlist.digest a')

let test_name_independent () =
  let a = build_xor ~name:"first" () in
  let b = build_xor ~name:"second" () in
  Alcotest.(check string) "model name excluded" (Netlist.digest a)
    (Netlist.digest b)

let test_structure_sensitive () =
  let a = build_xor ~name:"n" () in
  let b = B.create ~name:"n" () in
  let x = B.input b "x" in
  let y = B.input b "y" in
  B.output b "o" (B.and2 b x y);
  let b = B.finish b in
  Alcotest.(check bool) "different gate, different digest" true
    (Netlist.digest a <> Netlist.digest b)

let test_interface_sensitive () =
  let a = build_xor ~name:"n" () in
  let b = B.create ~name:"n" () in
  let x = B.input b "x" in
  let y = B.input b "y" in
  B.output b "different_output_name" (B.xor2 b x y);
  let b = B.finish b in
  Alcotest.(check bool) "output name is part of the identity" true
    (Netlist.digest a <> Netlist.digest b)

let test_strash_digest_redundancy_invariant () =
  (* The same function built with duplicated structure and dead logic
     content-addresses identically to the clean build. *)
  let clean = build_xor ~name:"clean" () in
  let b = B.create ~name:"redundant" () in
  let x = B.input b "x" in
  let y = B.input b "y" in
  let _dead = B.and2 b x y in
  let x1 = B.xor2 b x y in
  let x2 = B.xor2 b x y in
  B.output b "o" (B.or2 b x1 x2);
  let redundant = B.finish b in
  Alcotest.(check bool) "raw digests differ" true
    (Netlist.digest clean <> Netlist.digest redundant);
  Alcotest.(check string) "strashed digests agree" (Strash.digest clean)
    (Strash.digest redundant)

let pinned =
  [
    ("c17", "e8c225f23aaf9df4a5c981490e636579");
    ("intctl27", "04ea3e072b49750c87366042efe6165a");
    ("sec32", "2c0044af89047eb8787e7b9f51ec9e55");
    ("alu8", "89ed5b5b72b3a0630d31904048402e94");
    ("secded16", "e006ccdde9c0ffe1299d094c9ffaa4d6");
    ("datapath12", "ff6474cf5376a90ce9d090ce4d7866fe");
    ("sec32_nand", "9c2b39d824c4823d70645e1061f48a5f");
    ("bcdadd8", "293018400397d33bdfdd8f7e08a5241f");
    ("alu9", "3b6a02ed5c31671cf76784e43e67d190");
    ("datapath32", "2b8abb96be658ea93429ae0253d9420f");
    ("mult16", "2aed75f36d9efff1da1ea63e0f2823d9");
    ("parity16", "6053965621531d2d48a68d8cb59a9da8");
    ("rca8", "ed09368b15365f00b09d5e3dd1e54354");
    ("rca16", "d591abbcd90d371f980d6daa8895c6a7");
    ("rca32", "226d33f29fb8a4c437cb25b07e587416");
    ("cla16", "e0288402405ba50c65bfbc4a72b2fc26");
    ("csel16", "ffb27f407f5a5874576cc2b9590b7295");
    ("cskip16", "8d5ed0626cf22a5e8fd7ddf48c40e9cb");
    ("booth8", "a41a83bb71c8cc8af3d6401ba18b8820");
    ("mult4", "ae00fb270c425b8b0765319c3a331480");
    ("mult8", "1fbb3548846ba1feaf111565826da757");
    ("csmult8", "f8c9c04152db056f59b91a2a22e114f3");
  ]

let test_pinned_suite_digests () =
  (* Every built-in circuit is pinned, and no pin is stale. *)
  Alcotest.(check int) "pin count matches the suite"
    (List.length Nano_circuits.Suite.all)
    (List.length pinned);
  List.iter
    (fun entry ->
      let name = entry.Nano_circuits.Suite.name in
      match List.assoc_opt name pinned with
      | None -> Alcotest.failf "no pinned digest for %s" name
      | Some expected ->
        let actual =
          Strash.digest (entry.Nano_circuits.Suite.build ())
        in
        Alcotest.(check string) ("digest of " ^ name) expected actual)
    Nano_circuits.Suite.all

(* [Netlist.digest] of each suite circuit as [rugged_lite] maps it: the
   netlist every mapped profile, Monte-Carlo grid and tech report is
   measured on, node order included (the noise draws follow it). *)
let pinned_mapped =
  [
    ("c17", "e8c225f23aaf9df4a5c981490e636579");
    ("intctl27", "ae3ed1c0e298e307d3fafdeb04948f0c");
    ("sec32", "e5777a01bc305cb3085fc30db904f4bc");
    ("alu8", "5da03c2f0008fe7050837a8353503d0f");
    ("secded16", "81d038b8e29372c05c714a64d1bb96e6");
    ("datapath12", "16edd29c2163539598db48131c60b990");
    ("sec32_nand", "9c2b39d824c4823d70645e1061f48a5f");
    ("bcdadd8", "293018400397d33bdfdd8f7e08a5241f");
    ("alu9", "93b33d19f062b5a3a6a17c5f44b97886");
    ("datapath32", "f4d2d1f75cbdcb26eb418f08ffc3175c");
    ("mult16", "8ed48b1c7999abb083b077e07c227d15");
    ("parity16", "1622ded321ad9ae20d7c632592ce6fd7");
    ("rca8", "ed09368b15365f00b09d5e3dd1e54354");
    ("rca16", "d591abbcd90d371f980d6daa8895c6a7");
    ("rca32", "226d33f29fb8a4c437cb25b07e587416");
    ("cla16", "e0288402405ba50c65bfbc4a72b2fc26");
    ("csel16", "ffb27f407f5a5874576cc2b9590b7295");
    ("cskip16", "f490592ea26228d71a0affc3cba8496b");
    ("booth8", "f414698e2f1a7dba7b26f569cd4a3ad9");
    ("mult4", "90a38233f30186c891e6a7c770a32a5a");
    ("mult8", "188eccc480d4a2dce9bf77f1e1f66fb7");
    ("csmult8", "79f1b2751663967d539dd7704938662a");
  ]

let test_pinned_mapped_digests () =
  Alcotest.(check int) "pin count matches the suite"
    (List.length Nano_circuits.Suite.all)
    (List.length pinned_mapped);
  List.iter
    (fun entry ->
      let name = entry.Nano_circuits.Suite.name in
      match List.assoc_opt name pinned_mapped with
      | None -> Alcotest.failf "no pinned mapped digest for %s" name
      | Some expected ->
        Alcotest.(check string) ("mapped digest of " ^ name) expected
          (Netlist.digest
             (Nano_synth.Script.rugged_lite ~max_fanin:3
                (entry.Nano_circuits.Suite.build ()))))
    Nano_circuits.Suite.all

(* [Netlist.digest] of each suite circuit read back from its BLIF
   spelling: the netlist the BLIF reader elaborates, node order
   included. The Monte-Carlo draws follow node order through strash
   and mapping, so every BLIF request's measured figures rest on it. *)
let pinned_blif =
  [
    ("c17", "c28f379aa770b39df50286830fd87ac3");
    ("intctl27", "bfaba9be865cebfa4a32ab480276b2b9");
    ("sec32", "ea66ae55e8bad02cecb870082ffc1ed7");
    ("alu8", "edaf47f495eab0f5ca5620b98a4caa91");
    ("secded16", "99e5c1c6a1d922ac56574eeda4f237c7");
    ("datapath12", "371e5b4e8d89a17fea06dba358ffd2d5");
    ("sec32_nand", "df33a08b6af6dfc52eb717bae198ee0b");
    ("bcdadd8", "b991ced2771c6ae23556d65865b41632");
    ("alu9", "0482c75c882a02304a04d1ab7017d2f4");
    ("datapath32", "ffac9b4e8b107f3269d5549251384757");
    ("mult16", "d5ee0f874ddcb6aff7c5c56dd753fe24");
    ("parity16", "d8d45e695ef6186c14d76517e4a6f9f3");
    ("rca8", "371e37bf0d48d0f4da10898f1b4fe628");
    ("rca16", "b73e2538cda627151854d87b280a927b");
    ("rca32", "2da43ad539dcf0114a2938875cb52ee3");
    ("cla16", "0efdab84bd615c526b61ae1e6018b5dc");
    ("csel16", "f3119c7914b0aea5ed95e849ede956a3");
    ("cskip16", "1de787774d597e721e0c05f25c76f720");
    ("booth8", "8febde705c25ebe2991d7f658d8e0d18");
    ("mult4", "e6fa96f37a733b26b1e4d6589d06cba5");
    ("mult8", "70bf2c97b31642195a4bd65da18b15f1");
    ("csmult8", "26517db5137fcdf585af49f9cb09b1a8");
  ]

let elaborated text =
  match Nano_blif.Blif.parse_string text with
  | Ok n -> Netlist.digest n
  | Error e -> Alcotest.failf "parse failed: %a" Nano_blif.Blif.pp_error e

let test_pinned_blif_digests () =
  Alcotest.(check int) "pin count matches the suite"
    (List.length Nano_circuits.Suite.all)
    (List.length pinned_blif);
  List.iter
    (fun entry ->
      let name = entry.Nano_circuits.Suite.name in
      match List.assoc_opt name pinned_blif with
      | None -> Alcotest.failf "no pinned BLIF digest for %s" name
      | Some expected ->
        Alcotest.(check string) ("elaborated digest of " ^ name) expected
          (elaborated
             (Nano_blif.Blif.to_string (entry.Nano_circuits.Suite.build ()))))
    Nano_circuits.Suite.all;
  (* alu8 with one unused input added before [.outputs], the spelling
     the explore benchmark sends for a new circuit. *)
  Alcotest.(check string) "elaborated digest of padded alu8"
    "971586d698c907a307bbe5089380716e"
    (elaborated
       (Helpers.padded_blif
          (Nano_blif.Blif.to_string (Helpers.suite_circuit "alu8"))
          123456789))

let suite =
  [
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "name independent" `Quick test_name_independent;
    Alcotest.test_case "structure sensitive" `Quick test_structure_sensitive;
    Alcotest.test_case "interface sensitive" `Quick test_interface_sensitive;
    Alcotest.test_case "strash digest redundancy-invariant" `Quick
      test_strash_digest_redundancy_invariant;
    Alcotest.test_case "pinned suite digests" `Quick
      test_pinned_suite_digests;
    Alcotest.test_case "pinned mapped digests" `Quick
      test_pinned_mapped_digests;
    Alcotest.test_case "pinned BLIF digests" `Quick test_pinned_blif_digests;
  ]
