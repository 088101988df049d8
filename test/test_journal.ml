(* The append-only response-cache journal: framed records, replay
   order, and — the point of the format — recovery from the torn and
   corrupt tails a crash leaves behind. *)

module Journal = Nano_service.Journal

let temp_path () =
  let path = Filename.temp_file "nanobound-journal" ".bin" in
  Sys.remove path;
  path

let with_journal_file f =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let replay path =
  let seen = ref [] in
  let j = Journal.load ~path (fun ~key ~value -> seen := (key, value) :: !seen) in
  (j, List.rev !seen)

let file_size path = (Unix.stat path).Unix.st_size

let check_entries = Alcotest.(check (list (pair string string)))

let test_roundtrip () =
  with_journal_file (fun path ->
      let j, seen = replay path in
      check_entries "fresh file is empty" [] seen;
      Alcotest.(check int) "nothing recovered" 0 (Journal.entries_recovered j);
      Journal.append j ~key:"a" ~value:"1";
      Journal.append j ~key:"b" ~value:"2";
      Journal.append j ~key:"a" ~value:"3";
      Alcotest.(check int) "appends counted" 3 (Journal.appended j);
      Journal.close j;
      let j2, seen = replay path in
      (* Replay preserves append order, so an LRU fed from it ends up
         with the last write winning — same as the live cache. *)
      check_entries "replay in append order"
        [ ("a", "1"); ("b", "2"); ("a", "3") ]
        seen;
      Alcotest.(check int) "recovered count" 3 (Journal.entries_recovered j2);
      Alcotest.(check int) "clean boot truncates nothing" 0
        (Journal.bytes_truncated j2);
      Journal.close j2)

let test_torn_tail () =
  with_journal_file (fun path ->
      let j, _ = replay path in
      Journal.append j ~key:"k1" ~value:"v1";
      Journal.append j ~key:"k2" ~value:"v2";
      Journal.append j ~key:"k3" ~value:"v3";
      Journal.close j;
      (* Chop mid-record, as if the crash happened inside the last
         write. *)
      let size = file_size path in
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0o600 in
      Unix.ftruncate fd (size - 3);
      Unix.close fd;
      let j2, seen = replay path in
      check_entries "valid prefix survives"
        [ ("k1", "v1"); ("k2", "v2") ]
        seen;
      Alcotest.(check bool) "tail truncated" true
        (Journal.bytes_truncated j2 > 0);
      (* The handle is positioned after the good prefix: appending and
         reloading yields prefix + new record, no gap, no corruption. *)
      Journal.append j2 ~key:"k4" ~value:"v4";
      Journal.close j2;
      let j3, seen = replay path in
      check_entries "append after recovery"
        [ ("k1", "v1"); ("k2", "v2"); ("k4", "v4") ]
        seen;
      Alcotest.(check int) "clean again" 0 (Journal.bytes_truncated j3);
      Journal.close j3)

let test_corrupt_record () =
  with_journal_file (fun path ->
      let j, _ = replay path in
      Journal.append j ~key:"first" ~value:"ok";
      Journal.append j ~key:"second" ~value:"bad";
      Journal.close j;
      (* Flip one payload byte of the last record: its checksum no
         longer matches, so recovery must stop before it. *)
      let size = file_size path in
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0o600 in
      ignore (Unix.lseek fd (size - 1) Unix.SEEK_SET);
      ignore (Unix.write fd (Bytes.of_string "X") 0 1);
      Unix.close fd;
      let j2, seen = replay path in
      check_entries "corrupt record dropped" [ ("first", "ok") ] seen;
      Alcotest.(check bool) "corrupt tail truncated" true
        (Journal.bytes_truncated j2 > 0);
      Journal.close j2)

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  text

(* A file that was never a journal is refused, not truncated, and keeps
   its bytes. A file shorter than a header that is a prefix of the
   magic is a torn first record, which recovery still drops. *)
let test_garbage_file () =
  with_journal_file (fun path ->
      let text = "this is not a journal at all\n" in
      write_file path text;
      let refused f =
        match f () with
        | _ -> Alcotest.fail "a foreign file was taken for a journal"
        | exception Journal.Not_a_journal p ->
          Alcotest.(check string) "refusal names the path" path p
      in
      refused (fun () -> Journal.check ~path);
      refused (fun () ->
          Journal.load ~path (fun ~key:_ ~value:_ ->
              Alcotest.fail "replayed a record"));
      Alcotest.(check string) "bytes intact" text (read_file path);
      write_file path "NB";
      Journal.check ~path;
      let j, seen = replay path in
      check_entries "torn first record yields nothing" [] seen;
      Alcotest.(check int) "torn first record truncated" 2
        (Journal.bytes_truncated j);
      Journal.append j ~key:"k" ~value:"v";
      Journal.close j;
      Journal.check ~path;
      let j2, seen = replay path in
      check_entries "journal usable after reset" [ ("k", "v") ] seen;
      Journal.close j2);
  (* An absent file is no refusal: [load] creates it. *)
  Journal.check ~path:(temp_path ())

let test_oversized_header_rejected () =
  with_journal_file (fun path ->
      (* A header whose lengths exceed the record bound is corruption,
         not an allocation request. *)
      let oc = open_out_bin path in
      output_string oc "NBJ1";
      output_string oc "\xff\xff\xff\xff";
      output_string oc "\xff\xff\xff\xff";
      output_string oc (String.make 16 '\000');
      close_out oc;
      let j, seen = replay path in
      check_entries "bogus lengths replay nothing" [] seen;
      Alcotest.(check bool) "bogus header truncated" true
        (Journal.bytes_truncated j > 0);
      Journal.close j)

(* Damage a crash, a bad disk or a stray writer could do to a written
   journal: a changed byte, a cut, or bytes appended. *)
type damage = Flip of int * char | Cut of int | Extend of string

let damage bytes = function
  | Flip (at, c) when bytes <> "" ->
    let b = Bytes.of_string bytes in
    Bytes.set b (at mod Bytes.length b) c;
    Bytes.to_string b
  | Flip _ -> bytes
  | Cut at -> String.sub bytes 0 (at mod (String.length bytes + 1))
  | Extend tail -> bytes ^ tail

let gen_damaged =
  QCheck2.Gen.(
    let record =
      pair
        (string_size ~gen:printable (int_range 0 12))
        (string_size (int_range 0 40))
    in
    let hurt =
      oneof
        [
          map2 (fun at c -> Flip (at, c)) nat char;
          map (fun at -> Cut at) nat;
          map (fun tail -> Extend tail) (string_size (int_range 1 40));
        ]
    in
    pair (list_size (int_range 0 6) record) (list_size (int_range 1 3) hurt))

let rec is_prefix a b =
  match (a, b) with
  | [], _ -> true
  | x :: a, y :: b -> x = y && is_prefix a b
  | _ :: _, [] -> false

(* Loading never raises on bad contents: it replays a prefix of what was
   written and leaves a clean journal behind, or it refuses, unchanged,
   a file whose first bytes are not the magic or a prefix of it. *)
let prop_damaged_journals =
  QCheck2.Test.make ~name:"damaged journals replay a prefix" ~count:300
    gen_damaged (fun (records, hurts) ->
      with_journal_file (fun path ->
          let j, _ = replay path in
          List.iter (fun (key, value) -> Journal.append j ~key ~value) records;
          Journal.close j;
          let bytes = List.fold_left damage (read_file path) hurts in
          write_file path bytes;
          match replay path with
          | exception Journal.Not_a_journal _ ->
            let n = min 4 (String.length bytes) in
            String.sub bytes 0 n <> String.sub "NBJ1" 0 n
            && read_file path = bytes
          | j, seen ->
            Journal.close j;
            let j2, again = replay path in
            Journal.close j2;
            is_prefix seen records && again = seen
            && Journal.bytes_truncated j2 = 0))

let suite =
  [
    Alcotest.test_case "roundtrip + replay order" `Quick test_roundtrip;
    Alcotest.test_case "torn tail recovery" `Quick test_torn_tail;
    Alcotest.test_case "corrupt record recovery" `Quick test_corrupt_record;
    Alcotest.test_case "garbage file recovery" `Quick test_garbage_file;
    Alcotest.test_case "oversized header rejected" `Quick
      test_oversized_header_rejected;
    Helpers.qcheck prop_damaged_journals;
  ]
