module Json = Nano_util.Json
module Cache = Nano_service.Cache
module Protocol = Nano_service.Protocol
module Service = Nano_service.Service
module Metrics = Nano_bounds.Metrics

(* ------------------------------------------------------------------ *)
(* LRU cache.                                                           *)
(* ------------------------------------------------------------------ *)

let test_cache_lru_eviction () =
  let c = Cache.create ~capacity:2 in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  (* Touch "a" so "b" is the LRU entry when "c" arrives. *)
  Alcotest.(check bool) "hit a" true (Cache.find c "a" = Some 1);
  Cache.add c "c" 3;
  Alcotest.(check bool) "b evicted" false (Cache.mem c "b");
  Alcotest.(check bool) "a kept" true (Cache.mem c "a");
  Alcotest.(check bool) "c kept" true (Cache.mem c "c");
  let s = Cache.stats c in
  Alcotest.(check int) "one eviction" 1 s.Cache.evictions;
  Alcotest.(check int) "size" 2 s.Cache.size

let test_cache_counters () =
  let c = Cache.create ~capacity:4 in
  Alcotest.(check bool) "miss" true (Cache.find c "x" = None);
  Cache.add c "x" 10;
  Alcotest.(check bool) "hit" true (Cache.find c "x" = Some 10);
  Cache.add c "x" 11;
  Alcotest.(check bool) "replaced" true (Cache.find c "x" = Some 11);
  let s = Cache.stats c in
  Alcotest.(check int) "hits" 2 s.Cache.hits;
  Alcotest.(check int) "misses" 1 s.Cache.misses;
  Alcotest.(check int) "replacement is not eviction" 0 s.Cache.evictions

let test_cache_capacity_zero () =
  let c = Cache.create ~capacity:0 in
  Cache.add c "a" 1;
  Alcotest.(check bool) "nothing stored" true (Cache.find c "a" = None);
  let s = Cache.stats c in
  Alcotest.(check int) "misses counted" 1 s.Cache.misses;
  Helpers.check_invalid "negative capacity" (fun () ->
      ignore (Cache.create ~capacity:(-1)))

let test_cache_peek_uncounted () =
  let c = Cache.create ~capacity:2 in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  let before = Cache.stats c in
  Alcotest.(check (option int)) "peek finds a" (Some 1) (Cache.peek c "a");
  Alcotest.(check (option int)) "peek misses z" None (Cache.peek c "z");
  Alcotest.(check bool) "no hit, miss or eviction counted" true
    (Cache.stats c = before);
  (* "a" is still the least recently used entry. *)
  Cache.add c "c" 3;
  Alcotest.(check bool) "a evicted" false (Cache.mem c "a");
  Alcotest.(check bool) "b kept" true (Cache.mem c "b");
  Alcotest.(check int) "one eviction" 1 (Cache.stats c).Cache.evictions

(* ------------------------------------------------------------------ *)
(* Protocol round-trips.                                                *)
(* ------------------------------------------------------------------ *)

let scenario =
  {
    Metrics.epsilon = 0.01;
    delta = 0.01;
    fanin = 2;
    sensitivity = 10;
    error_free_size = 21;
    inputs = 10;
    sw0 = 0.5;
    leakage_share0 = 0.5;
  }

let roundtrip env =
  match Protocol.request_of_json (Protocol.request_to_json env) with
  | Ok env' -> env' = env
  | Error _ -> false

let test_protocol_roundtrip () =
  List.iter
    (fun env ->
      Alcotest.(check bool)
        (Protocol.kind_name env.Protocol.request ^ " round-trips")
        true (roundtrip env))
    [
      { Protocol.request = Protocol.Ping; timeout_ms = None };
      { Protocol.request = Protocol.Stats; timeout_ms = Some 250 };
      { Protocol.request = Protocol.Shutdown; timeout_ms = None };
      { Protocol.request = Protocol.Bounds scenario; timeout_ms = None };
      {
        Protocol.request =
          Protocol.Profile
            { circuit = Protocol.Named "c17"; no_map = true };
        timeout_ms = None;
      };
      {
        Protocol.request =
          Protocol.Profile
            {
              circuit = Protocol.Blif ".model m\n.inputs a\n.outputs o\n";
              no_map = false;
            };
        timeout_ms = None;
      };
      {
        Protocol.request =
          Protocol.Analyze
            {
              circuit = Protocol.Named "rca8";
              delta = 0.02;
              leakage_share0 = 0.4;
              epsilons = [ 0.001; 0.01 ];
              no_map = false;
              measure = true;
              vectors = 2048;
              tech = None;
            };
        timeout_ms = Some 1000;
      };
      {
        Protocol.request = Protocol.Sweep { figure = "fig3" };
        timeout_ms = None;
      };
      {
        Protocol.request =
          Protocol.Static
            {
              circuit = Protocol.Named "rca8";
              epsilon = 0.02;
              input_probability = 0.25;
              cone_budget = 128;
              tech = Some (Protocol.Tech_named "nanodev");
            };
        timeout_ms = None;
      };
    ]

let test_protocol_defaults () =
  match Json.parse {|{"kind":"analyze","circuit":"c17"}|} with
  | Error _ -> Alcotest.fail "parse"
  | Ok json -> (
    match Protocol.request_of_json json with
    | Ok
        {
          Protocol.request =
            Protocol.Analyze { delta; leakage_share0; epsilons; no_map; _ };
          timeout_ms = None;
        } ->
      Helpers.check_float "default delta" 0.01 delta;
      Helpers.check_float "default leakage" 0.5 leakage_share0;
      Alcotest.(check bool) "paper epsilons" true
        (epsilons = Nano_bounds.Benchmark_eval.paper_epsilons);
      Alcotest.(check bool) "mapping on" false no_map
    | Ok _ -> Alcotest.fail "decoded the wrong shape"
    | Error msg -> Alcotest.fail msg)

let test_protocol_rejects () =
  let reject msg line =
    match Json.parse line with
    | Error _ -> Alcotest.failf "%s: should parse as JSON" msg
    | Ok json -> (
      match Protocol.request_of_json json with
      | Ok _ -> Alcotest.failf "%s: expected a decode error" msg
      | Error _ -> ())
  in
  reject "unknown kind" {|{"kind":"frobnicate"}|};
  reject "missing kind" {|{"circuit":"c17"}|};
  reject "both circuit and blif" {|{"kind":"profile","circuit":"a","blif":"b"}|};
  reject "wrong type" {|{"kind":"analyze","circuit":"c17","delta":"x"}|};
  reject "non-object" {|[1,2]|}

(* A reply cached as parts reads back as the whole reply. *)
let prop_spliced_reply =
  QCheck2.Test.make ~name:"spliced reply = ok_reply of the whole object"
    ~count:500
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 4)
           (pair (small_string ~gen:printable) Test_json.gen_json))
        (small_string ~gen:printable) Test_json.gen_json)
    (fun (fields, last, value) ->
      Protocol.ok_reply_head (Json.Obj fields) ~last
      ^ Json.to_string value ^ "}}"
      = Protocol.ok_reply (Json.Obj (fields @ [ (last, value) ])))

let test_spliced_reply_needs_fields () =
  List.iter
    (fun result ->
      Helpers.check_invalid "no members to follow" (fun () ->
          ignore (Protocol.ok_reply_head result ~last:"lint")))
    [ Json.Obj []; Json.List [ Json.Int 1 ]; Json.String "pong" ]

(* ------------------------------------------------------------------ *)
(* Service handler.                                                     *)
(* ------------------------------------------------------------------ *)

let make_service ?(jobs = 1) ?(cache = 64) ?(max_bytes = 1 lsl 20) () =
  let config =
    {
      (Service.default_config ()) with
      Service.jobs;
      cache_capacity = cache;
      max_request_bytes = max_bytes;
    }
  in
  Service.create ~config ()

let reply_ok reply =
  match Json.parse reply with
  | Ok v -> Json.member "ok" v = Some (Json.Bool true)
  | Error _ -> false

let error_code reply =
  match Json.parse reply with
  | Ok v ->
    Option.bind (Json.member "error" v) (fun e ->
        Option.bind (Json.member "code" e) Json.to_string_opt)
  | Error _ -> None

let stats_of_service t =
  match Json.parse (Service.handle_line t {|{"kind":"stats"}|}) with
  | Ok v -> Option.get (Json.member "result" v)
  | Error _ -> Alcotest.fail "stats reply unparseable"

let cache_counter stats ~cache ~field =
  Option.get
    (Option.bind (Json.member "caches" stats) (fun c ->
         Option.bind (Json.member cache c) (fun c ->
             Option.bind (Json.member field c) Json.to_int)))

(* [stats]' preflights: (linted, reused). *)
let preflight_counts t =
  let stats = stats_of_service t in
  let field name =
    Option.get
      (Option.bind (Json.member "preflights" stats) (fun p ->
           Option.bind (Json.member name p) Json.to_int))
  in
  (field "computed", field "reused")

let analyze_line = {|{"kind":"analyze","circuit":"c17","epsilons":[0.01]}|}

let test_bounds_matches_direct_evaluation () =
  let t = make_service () in
  let reply = Service.handle_line t {|{"kind":"bounds"}|} in
  let expected =
    Protocol.ok_reply (Protocol.bounds_to_json (Metrics.evaluate scenario))
  in
  Alcotest.(check string) "service = Metrics.evaluate" expected reply

(* ε = 1/2 lies in every verb's domain, and there the size and energy
   bounds are +∞: the daemon answers with those fields null, as the
   tables print them inf, instead of failing in the encoder. *)
let test_coin_flip_bounds_are_null () =
  let t = make_service () in
  let result line =
    let reply = Service.handle_line t line in
    Alcotest.(check bool) (line ^ " is ok") true (reply_ok reply);
    match Json.parse reply with
    | Ok v -> Option.get (Json.member "result" v)
    | Error _ -> Alcotest.fail "reply unparseable"
  in
  let member k v = Option.get (Json.member k v) in
  let first v = List.hd (Option.get (Json.to_list v)) in
  let check_null msg v = Alcotest.(check bool) msg true (v = Json.Null) in
  check_null "bounds size_ratio"
    (member "size_ratio" (result {|{"kind":"bounds","epsilon":0.5}|}));
  let row line = first (member "rows" (result line)) in
  check_null "analyze size_ratio"
    (member "size_ratio"
       (row {|{"kind":"analyze","circuit":"c17","epsilons":[0.5]}|}));
  let priced =
    result
      {|{"kind":"analyze","circuit":"c17","epsilons":[0.5],"tech":"cmos55"}|}
  in
  check_null "tech bound_energy_j"
    (member "bound_energy_j" (first (member "bounds" (member "tech" priced))))

(* An ε far below any grid, down to the smallest subnormal, lies in
   the (0, 1/2] domain the protocol accepts, so bounds and analyze
   answer [ok] with a finite size ratio of at least 1. *)
let test_tiny_epsilon_bounds_answer () =
  let t = make_service () in
  let result line =
    let reply = Service.handle_line t line in
    Alcotest.(check bool) (line ^ " is ok") true (reply_ok reply);
    match Json.parse reply with
    | Ok v -> Option.get (Json.member "result" v)
    | Error _ -> Alcotest.fail "reply unparseable"
  in
  let member k v = Option.get (Json.member k v) in
  let check_ratio msg v =
    match Json.to_float v with
    | Some r -> Alcotest.(check bool) msg true (Float.is_finite r && r >= 1.)
    | None -> Alcotest.failf "%s: not a number" msg
  in
  List.iter
    (fun eps ->
      check_ratio ("bounds size_ratio at " ^ eps)
        (member "size_ratio"
           (result (Printf.sprintf {|{"kind":"bounds","epsilon":%s}|} eps)));
      let rows =
        member "rows"
          (result
             (Printf.sprintf
                {|{"kind":"analyze","circuit":"c17","epsilons":[%s]}|} eps))
      in
      check_ratio ("analyze size_ratio at " ^ eps)
        (member "size_ratio" (List.hd (Option.get (Json.to_list rows)))))
    [ "1e-17"; "1e-300"; "5e-324" ]

(* Each line misses once cold and hits once warm with the same bytes:
   the default-grid analyze on four suite circuits and rca8 priced by
   both built-in technology packs, whose digest keys the cache. *)
let test_cache_hit_is_byte_identical () =
  let t = make_service () in
  let lines =
    analyze_line
    :: List.map
         (Printf.sprintf {|{"kind":"analyze","circuit":"%s"}|})
         [ "c17"; "rca16"; "alu8"; "mult8" ]
    @ List.map
        (Printf.sprintf {|{"kind":"analyze","circuit":"rca8","tech":"%s"}|})
        [ "cmos55"; "nanodev" ]
  in
  List.iter
    (fun line ->
      let cold = Service.handle_line t line in
      let warm = Service.handle_line t line in
      Alcotest.(check bool) (line ^ ": cold succeeds") true (reply_ok cold);
      Alcotest.(check string) (line ^ ": warm bytes = cold bytes") cold warm)
    lines;
  let stats = stats_of_service t in
  Alcotest.(check int) "one response hit per line" (List.length lines)
    (cache_counter stats ~cache:"responses" ~field:"hits");
  Alcotest.(check int) "one response miss per line" (List.length lines)
    (cache_counter stats ~cache:"responses" ~field:"misses")

let test_jobs_independent_replies () =
  let t1 = make_service ~jobs:1 () in
  let t4 = make_service ~jobs:4 () in
  let line =
    {|{"kind":"analyze","circuit":"rca8","epsilons":[0.001,0.01,0.1]}|}
  in
  Alcotest.(check string) "jobs=1 and jobs=4 agree byte-for-byte"
    (Service.handle_line t1 line)
    (Service.handle_line t4 line)

let test_profile_core_shared_with_analyze () =
  let t = make_service () in
  let p = Service.handle_line t {|{"kind":"profile","circuit":"c17"}|} in
  Alcotest.(check bool) "profile ok" true (reply_ok p);
  let a = Service.handle_line t analyze_line in
  Alcotest.(check bool) "analyze ok" true (reply_ok a);
  let stats = stats_of_service t in
  (* Distinct response entries, but the Monte-Carlo profile is reused. *)
  Alcotest.(check int) "profile core hit" 1
    (cache_counter stats ~cache:"profiles" ~field:"hits");
  Alcotest.(check int) "profile core measured once" 1
    (cache_counter stats ~cache:"profiles" ~field:"misses")

let test_rename_only_blif_shares_profile_core () =
  let blif name =
    Printf.sprintf
      ".model %s\n.inputs a b\n.outputs o\n.names a b o\n11 1\n.end\n" name
  in
  let req name =
    Json.to_string
      (Json.Obj
         [
           ("kind", Json.String "profile");
           ("blif", Json.String (blif name));
         ])
  in
  let t = make_service () in
  let r1 = Service.handle_line t (req "first") in
  let r2 = Service.handle_line t (req "second") in
  Alcotest.(check bool) "both ok" true (reply_ok r1 && reply_ok r2);
  Alcotest.(check bool) "replies differ (name is reported)" true (r1 <> r2);
  let stats = stats_of_service t in
  Alcotest.(check int) "one shared profile measurement" 1
    (cache_counter stats ~cache:"profiles" ~field:"misses");
  Alcotest.(check int) "second request reused it" 1
    (cache_counter stats ~cache:"profiles" ~field:"hits")

let test_structured_errors () =
  let t = make_service ~max_bytes:4096 () in
  let check msg code line =
    let reply = Service.handle_line t line in
    Alcotest.(check bool) (msg ^ " is a failure") false (reply_ok reply);
    Alcotest.(check (option string)) (msg ^ " code") (Some code)
      (error_code reply)
  in
  check "garbage" "parse_error" "this is not json";
  check "wrong shape" "bad_request" {|{"kind":"frobnicate"}|};
  check "unknown circuit" "unknown_circuit"
    {|{"kind":"profile","circuit":"nosuch"}|};
  check "bad blif" "blif_parse_error"
    {|{"kind":"profile","blif":".model m\n.latch a b\n.end\n"}|};
  (* A repeated output name is a BLIF error like any other. *)
  List.iter
    (fun kind ->
      let line =
        Printf.sprintf
          {|{"kind":"%s","blif":".model d\n.inputs a b\n.outputs f f\n.names a b f\n11 1\n"}|}
          kind
      in
      check ("repeated output, " ^ kind) "blif_parse_error" line;
      let message =
        match Json.parse (Service.handle_line t line) with
        | Ok v ->
          Option.bind (Json.member "error" v) (fun e ->
              Option.bind (Json.member "message" e) Json.to_string_opt)
        | Error _ -> None
      in
      Alcotest.(check (option string))
        ("repeated output message, " ^ kind)
        (Some "line 3: duplicate output f") message)
    [ "profile"; "analyze"; "static" ];
  check "invalid scenario" "invalid_scenario"
    {|{"kind":"bounds","epsilon":0.9}|};
  check "unknown figure" "unknown_figure"
    {|{"kind":"sweep","figure":"fig99"}|};
  check "oversized" "oversized"
    (Printf.sprintf {|{"kind":"profile","blif":"%s"}|}
       (String.make 8192 'x'));
  check "timeout" "timeout"
    {|{"kind":"analyze","circuit":"rca8","timeout_ms":0}|};
  (* A non-positive vector budget, or an analysis parameter outside the
     theorems' domain, is refused by the decoder, before any profile or
     Monte-Carlo work, with a message naming the field. *)
  let profile_lookups () =
    let stats = stats_of_service t in
    cache_counter stats ~cache:"profiles" ~field:"hits"
    + cache_counter stats ~cache:"profiles" ~field:"misses"
  in
  let lookups_before = profile_lookups () in
  List.iter
    (fun (fields, expected) ->
      let line =
        {|{"kind":"analyze","circuit":"rca8","measure":true,|} ^ fields ^ "}"
      in
      check fields "bad_request" line;
      let message =
        match Json.parse (Service.handle_line t line) with
        | Ok v ->
          Option.bind (Json.member "error" v) (fun e ->
              Option.bind (Json.member "message" e) Json.to_string_opt)
        | Error _ -> None
      in
      Alcotest.(check (option string))
        (fields ^ " message") (Some expected) message)
    [
      ( {|"vectors":0,"epsilons":[0.01]|},
        {|field "vectors" must be a positive integer|} );
      ( {|"vectors":-5,"epsilons":[0.01]|},
        {|field "vectors" must be a positive integer|} );
      ({|"epsilons":[0.01,0.6]|}, {|field "epsilons" must lie in (0, 1/2]|});
      ({|"epsilons":[0]|}, {|field "epsilons" must lie in (0, 1/2]|});
      ({|"delta":0.5|}, {|field "delta" must lie in [0, 1/2)|});
      ({|"delta":0.6|}, {|field "delta" must lie in [0, 1/2)|});
      ({|"leakage_share0":1|}, {|field "leakage_share0" must lie in [0, 1)|});
    ];
  Alcotest.(check int) "no profile looked up" lookups_before
    (profile_lookups ())

let test_static_request () =
  let t = make_service () in
  let line = {|{"kind":"static","circuit":"rca8","epsilon":0.02}|} in
  let cold = Service.handle_line t line in
  let warm = Service.handle_line t line in
  Alcotest.(check bool) "cold succeeds" true (reply_ok cold);
  Alcotest.(check string) "warm bytes = cold bytes" cold warm;
  (* The reply is exactly the analyzer's encoding — no simulation
     anywhere, so it needs no seed in the key and no jobs caveat. *)
  let netlist =
    (Option.get (Nano_circuits.Suite.find "rca8")).Nano_circuits.Suite.build
      ()
  in
  let expected =
    Protocol.ok_reply
      (Nano_static.Static.to_json
         (Nano_static.Static.analyze ~epsilon:0.02 netlist)
         netlist)
  in
  Alcotest.(check string) "service = Static.to_json" expected cold;
  let stats = stats_of_service t in
  let static_counter field =
    Option.get
      (Option.bind (Json.member "static_cache" stats) (fun c ->
           Option.bind (Json.member field c) Json.to_int))
  in
  Alcotest.(check int) "one static hit" 1 (static_counter "hits");
  Alcotest.(check int) "one static miss" 1 (static_counter "misses")

let test_static_tech_floor () =
  (* nanodev's intrinsic eps = 0.02 floors the requested 0.001: the
     reply must match a direct analysis at the floored value, and key
     on it (same reply bytes for any requested eps under the floor). *)
  let t = make_service () in
  let reply eps =
    Service.handle_line t
      (Printf.sprintf
         {|{"kind":"static","circuit":"c17","epsilon":%g,"tech":"nanodev"}|}
         eps)
  in
  let floored = reply 0.001 in
  Alcotest.(check bool) "ok" true (reply_ok floored);
  let netlist =
    (Option.get (Nano_circuits.Suite.find "c17")).Nano_circuits.Suite.build ()
  in
  let expected =
    Protocol.ok_reply
      (Nano_static.Static.to_json
         (Nano_static.Static.analyze ~epsilon:0.02 netlist)
         netlist)
  in
  Alcotest.(check string) "floored at intrinsic eps" expected floored;
  Alcotest.(check string) "sub-floor requests coalesce" floored (reply 0.005);
  Alcotest.(check (option string))
    "bad pack is an error reply" (Some "unknown_tech")
    (error_code
       (Service.handle_line t
          {|{"kind":"static","circuit":"c17","tech":"nosuch"}|}))

let test_error_then_service_still_up () =
  let t = make_service () in
  ignore (Service.handle_line t "garbage");
  Alcotest.(check bool) "still serving" true
    (reply_ok (Service.handle_line t {|{"kind":"ping"}|}));
  Alcotest.(check bool) "not stopping" false (Service.shutdown_requested t)

let test_batch_coalescing () =
  let t = make_service () in
  let replies =
    Service.handle_batch t [ analyze_line; analyze_line; analyze_line ]
  in
  (match replies with
  | [ a; b; c ] ->
    Alcotest.(check bool) "ok" true (reply_ok a);
    Alcotest.(check string) "duplicate 1 fanned out" a b;
    Alcotest.(check string) "duplicate 2 fanned out" a c
  | _ -> Alcotest.fail "expected three replies");
  let stats = stats_of_service t in
  Alcotest.(check int) "evaluated once" 1
    (cache_counter stats ~cache:"responses" ~field:"misses");
  Alcotest.(check int) "no cache hits needed" 0
    (cache_counter stats ~cache:"responses" ~field:"hits");
  Alcotest.(check bool) "coalesced counted" true
    (Option.bind (Json.member "coalesced" stats) Json.to_int = Some 2)

let test_shutdown_flag () =
  let t = make_service () in
  Alcotest.(check bool) "initially up" false (Service.shutdown_requested t);
  let reply = Service.handle_line t {|{"kind":"shutdown"}|} in
  Alcotest.(check bool) "acknowledged" true (reply_ok reply);
  Alcotest.(check bool) "stopping" true (Service.shutdown_requested t)

(* ------------------------------------------------------------------ *)
(* Circuit identity memo: spelling -> (name, strash digest).            *)
(* ------------------------------------------------------------------ *)

let memo_blif =
  ".model memo\n.inputs a b c\n.outputs o p\n.names a b t\n11 1\n\
   .names t c o\n1- 1\n-1 1\n.names a c p\n10 1\n01 1\n.end\n"

(* One request line over [memo_blif]; [fields] follow the circuit. *)
let blif_line kind fields =
  Json.to_string
    (Json.Obj
       ([ ("kind", Json.String kind); ("blif", Json.String memo_blif) ]
       @ fields))

let test_identity_memo_serves_hits () =
  let t = make_service () in
  let lines =
    [
      blif_line "static" [ ("epsilon", Json.Float 0.02) ];
      blif_line "analyze" [ ("epsilons", Json.List [ Json.Float 0.01 ]) ];
      {|{"kind":"lint","circuit":"rca8"}|};
    ]
  in
  List.iter
    (fun line ->
      let cold = Service.handle_line t line in
      Alcotest.(check bool) "cold succeeds" true (reply_ok cold);
      Alcotest.(check string) "repeat = cold bytes" cold
        (Service.handle_line t line))
    lines;
  let stats = stats_of_service t in
  let counter cache field = cache_counter stats ~cache ~field in
  Alcotest.(check int) "every repeat a response hit" 3 (counter "responses" "hits");
  (* static resolves the BLIF (miss), its repeat and both analyze lines
     share that spelling (hits); lint resolves rca8, then hits. *)
  Alcotest.(check int) "identities resolved" 2 (counter "circuits" "misses");
  Alcotest.(check int) "identities remembered" 4 (counter "circuits" "hits");
  Alcotest.(check int) "two spellings held" 2 (counter "circuits" "size");
  Alcotest.(check int) "bounded by cache_capacity" 64
    (counter "circuits" "capacity")

let test_identity_memo_miss_path_matches_cold () =
  (* Each pair shares a spelling but not a response key: the second
     line finds the identity remembered, misses the response cache and
     builds its netlist lazily. Its reply must be the bytes a fresh
     service computes cold. *)
  let tech = ("tech", Json.String "nanodev") in
  let measured ?(epsilons = [ 0.01; 0.05 ]) ?(vectors = 256) fields =
    blif_line "analyze"
      (fields
      @ [
          ("epsilons", Json.List (List.map (fun e -> Json.Float e) epsilons));
          ("measure", Json.Bool true);
          ("vectors", Json.Int vectors);
        ])
  in
  let no_map = ("no_map", Json.Bool true) in
  let pairs =
    [
      ( blif_line "static" [ ("epsilon", Json.Float 0.02) ],
        blif_line "static" [ ("epsilon", Json.Float 0.05) ] );
      ( blif_line "analyze" [ ("delta", Json.Float 0.01) ],
        blif_line "analyze" [ ("delta", Json.Float 0.02); tech ] );
      ( blif_line "profile" [],
        blif_line "profile" [ ("no_map", Json.Bool true) ] );
      ( {|{"kind":"analyze","circuit":"c17","epsilons":[0.01],"measure":true,"vectors":256}|},
        {|{"kind":"analyze","circuit":"c17","epsilons":[0.01],"measure":true,"vectors":256,"delta":0.02,"tech":"nanodev"}|}
      );
      (* A measured revisit with a new delta reuses the grid's lanes,
         mapped and unmapped; one that changes what the lanes measure
         (mapping, vector budget, epsilon list) must not. *)
      (measured [], measured [ ("delta", Json.Float 0.02) ]);
      (measured [ no_map ], measured [ no_map; ("delta", Json.Float 0.03) ]);
      (measured [], measured [ no_map ]);
      (measured [], measured ~vectors:512 []);
      (measured [], measured ~epsilons:[ 0.01 ] []);
      ( {|{"kind":"lint","circuit":"rca8"}|},
        {|{"kind":"lint","circuit":"rca8","epsilon":0.05}|} );
    ]
  in
  List.iter
    (fun (first, second) ->
      let warm = make_service () in
      Alcotest.(check bool) "first ok" true
        (reply_ok (Service.handle_line warm first));
      let reply = Service.handle_line warm second in
      let stats = stats_of_service warm in
      Alcotest.(check int) "identity remembered" 1
        (cache_counter stats ~cache:"circuits" ~field:"hits");
      Alcotest.(check int) "response computed" 0
        (cache_counter stats ~cache:"responses" ~field:"hits");
      Alcotest.(check string) "memo-hit reply = fresh cold reply"
        (Service.handle_line (make_service ()) second)
        reply)
    pairs

let test_identity_memo_never_holds_failures () =
  let t = make_service () in
  let lines =
    [
      ( "blif_parse_error",
        {|{"kind":"static","blif":".model m\n.latch a b\n.end\n"}|} );
      ("unknown_circuit", {|{"kind":"analyze","circuit":"nosuch"}|});
      ("unknown_circuit", {|{"kind":"lint","circuit":"nosuch"}|});
      (* A circuit error still wins over a tech-pack error. *)
      ( "unknown_circuit",
        {|{"kind":"static","circuit":"nosuch","tech":"nosuch"}|} );
    ]
  in
  List.iter
    (fun (code, line) ->
      let first = Service.handle_line t line in
      Alcotest.(check (option string)) "error code" (Some code)
        (error_code first);
      Alcotest.(check string) "same error reply again" first
        (Service.handle_line t line))
    lines;
  let stats = stats_of_service t in
  Alcotest.(check int) "nothing remembered" 0
    (cache_counter stats ~cache:"circuits" ~field:"size");
  Alcotest.(check int) "every attempt resolved" 8
    (cache_counter stats ~cache:"circuits" ~field:"misses")

let test_journal_warmed_lines_hit () =
  let path = Filename.temp_file "nano_service" ".journal" in
  Sys.remove path;
  let config =
    {
      (Service.default_config ()) with
      Service.jobs = 1;
      cache_capacity = 64;
      journal = Some path;
    }
  in
  let lines =
    [
      {|{"kind":"analyze","circuit":"c17","epsilons":[0.01]}|};
      blif_line "analyze" [ ("epsilons", Json.List [ Json.Float 0.01 ]) ];
      {|{"kind":"static","circuit":"rca8"}|};
      blif_line "static" [];
      {|{"kind":"lint","circuit":"rca8"}|};
      blif_line "lint" [];
    ]
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let writer = Service.create ~config () in
      let cold = List.map (Service.handle_line writer) lines in
      Service.close writer;
      List.iter
        (fun r -> Alcotest.(check bool) "cold ok" true (reply_ok r))
        cold;
      let reader = Service.create ~config () in
      let warm = List.map (Service.handle_line reader) lines in
      List.iter2 (Alcotest.(check string) "replayed = cold bytes") cold warm;
      let stats = stats_of_service reader in
      Service.close reader;
      Alcotest.(check int) "every line a hit" (List.length lines)
        (cache_counter stats ~cache:"responses" ~field:"hits");
      Alcotest.(check int) "nothing evaluated" 0
        (cache_counter stats ~cache:"responses" ~field:"misses");
      Alcotest.(check (option int)) "no appends" (Some 0)
        (Option.bind (Json.member "journal" stats) (fun j ->
             Option.bind (Json.member "appended" j) Json.to_int)))

let test_cold_measure_compiles_once () =
  let misses () =
    (Nano_netlist.Compiled.memo_stats ()).Nano_netlist.Compiled.memo_misses
  in
  let t = make_service () in
  let line ?(tech = "") delta =
    Printf.sprintf
      {|{"kind":"analyze","circuit":"alu8","epsilons":[0.01],"measure":true,"vectors":256,"delta":%g%s}|}
      delta tech
  in
  let before = misses () in
  Alcotest.(check bool) "cold ok" true
    (reply_ok (Service.handle_line t (line 0.01)));
  (* The profile and the measured grid run on one mapped netlist. *)
  Alcotest.(check int) "cold visit lowers one program" 1 (misses () - before);
  (* A new delta reuses the profile and the grid's lanes: nothing is
     mapped, lowered or simulated. *)
  let before = misses () in
  Alcotest.(check bool) "revisit ok" true
    (reply_ok (Service.handle_line t (line 0.02)));
  Alcotest.(check int) "revisit lowers nothing" 0 (misses () - before);
  (* The tech report reads the profile entry's netlist, unpacked, and
     its activity counts, so a tech revisit neither maps nor lowers;
     the lanes still come from the memo. *)
  let before = misses () in
  Alcotest.(check bool) "tech revisit ok" true
    (reply_ok (Service.handle_line t (line ~tech:{|,"tech":"nanodev"|} 0.03)));
  Alcotest.(check int) "tech revisit lowers nothing" 0 (misses () - before);
  let stats = stats_of_service t in
  Alcotest.(check int) "one grid measured" 1
    (cache_counter stats ~cache:"grids" ~field:"misses");
  Alcotest.(check int) "both revisits reused it" 2
    (cache_counter stats ~cache:"grids" ~field:"hits")

(* ------------------------------------------------------------------ *)
(* Replies that read the raw netlist key on its spelling.              *)
(* ------------------------------------------------------------------ *)

(* Three spellings of model t, y = (a & b) | c, with one strash digest:
   plain, with a double inversion, and with a duplicated AND. Their raw
   netlists differ, and static, unmapped profiles and every lint
   preflight read the raw netlist. *)
let digest_equal_spellings =
  let blif body = ".model t\n.inputs a b c\n.outputs y\n" ^ body ^ ".end\n" in
  [
    blif ".names a b g\n11 1\n.names g c y\n1- 1\n-1 1\n";
    blif
      ".names a b g\n11 1\n.names g n\n0 1\n.names n m\n0 1\n\
       .names m c y\n1- 1\n-1 1\n";
    blif ".names a b g\n11 1\n.names a b h\n11 1\n.names g h c y\n11- 1\n--1 1\n";
  ]

let test_digest_equal_spellings_keep_their_replies () =
  let digest text =
    match Nano_blif.Blif.parse_string text with
    | Ok n -> Nano_synth.Strash.digest n
    | Error _ -> Alcotest.fail "spelling does not parse"
  in
  let digests = List.map digest digest_equal_spellings in
  List.iter
    (Alcotest.(check string) "one strash digest" (List.hd digests))
    digests;
  let line kind fields text =
    Json.to_string
      (Json.Obj
         ([ ("kind", Json.String kind); ("blif", Json.String text) ] @ fields))
  in
  let no_map = ("no_map", Json.Bool true) in
  let nanodev = ("tech", Json.String "nanodev") in
  let measured =
    [
      ("epsilons", Json.List [ Json.Float 0.01 ]);
      ("measure", Json.Bool true);
      ("vectors", Json.Int 256);
    ]
  in
  (* One service sees every request kind on every spelling in turn; each
     reply must be the one a fresh service computes for it alone. *)
  let warm = make_service () in
  List.iter
    (fun (label, kind, fields) ->
      let fresh =
        List.map
          (fun text ->
            let l = line kind fields text in
            let expected = Service.handle_line (make_service ()) l in
            Alcotest.(check string)
              (label ^ ": reply = fresh service's")
              expected
              (Service.handle_line warm l);
            expected)
          digest_equal_spellings
      in
      Alcotest.(check bool)
        (label ^ ": the spellings' replies differ")
        true
        (List.length (List.sort_uniq compare fresh) > 1))
    [
      ("static", "static", []);
      ("unmapped profile", "profile", [ no_map ]);
      ("unmapped analyze", "analyze", [ no_map ]);
      ("mapped analyze", "analyze", []);
      ("mapped measured analyze", "analyze", measured);
      ("unmapped measured analyze", "analyze", no_map :: measured);
      ("mapped analyze with a pack", "analyze", [ nanodev ]);
      ("unmapped analyze with a pack", "analyze", [ no_map; nanodev ]);
    ]

(* ------------------------------------------------------------------ *)
(* Revisits: a circuit priced again at a new delta.                    *)
(* ------------------------------------------------------------------ *)

let request_line fields = Json.to_string (Json.Obj fields)

let measured_fields =
  [
    ("epsilons", Json.List [ Json.Float 0.01; Json.Float 0.05 ]);
    ("measure", Json.Bool true);
    ("vectors", Json.Int 256);
  ]

let analyze_request ?(fields = []) circuit delta =
  request_line
    ((("kind", Json.String "analyze") :: circuit)
    @ (("delta", Json.Float delta) :: fields))

let blif_circuit text = [ ("blif", Json.String text) ]

(* A suite circuit's BLIF with one unused input [pad<k>]: a spelling
   no cache has seen, which draws a lint warning for the pad. *)
let padded_circuit name k =
  blif_circuit
    (Helpers.padded_blif
       (Nano_blif.Blif.to_string (Helpers.suite_circuit name))
       k)

let tech_field name = ("tech", Json.String name)

(* Explore's traffic in small: each circuit is visited, then revisited
   at a new delta, some revisits priced by a technology pack. Padded
   BLIF spellings of c17, rca8, alu8 and datapath32, a Random_circuit
   netlist and two circuits by name (alu8 draws a preflight, c17 is
   clean); one spelling is visited by a profile request, and one pair
   runs unmapped. The last two pairs revisit at a new epsilon list, and
   price a profiled spelling under a pack. *)
let revisit_pairs =
  lazy
    (let random =
       blif_circuit
         (Nano_blif.Blif.to_string
            (Nano_circuits.Random_circuit.generate
               ~config:
                 {
                   Nano_circuits.Random_circuit.default_config with
                   inputs = 12;
                   gates = 300;
                   outputs = 6;
                 }
               ~seed:27 ()))
     in
     let named name = [ ("circuit", Json.String name) ] in
     let measured = measured_fields in
     let no_map = ("no_map", Json.Bool true) in
     [
       ( analyze_request ~fields:measured (padded_circuit "c17" 1) 0.01,
         analyze_request
           ~fields:(tech_field "nanodev" :: measured)
           (padded_circuit "c17" 1) 0.02 );
       ( analyze_request (padded_circuit "rca8" 2) 0.01,
         analyze_request (padded_circuit "rca8" 2) 0.03 );
       ( analyze_request ~fields:measured (padded_circuit "alu8" 3) 0.01,
         analyze_request
           ~fields:(tech_field "cmos55" :: measured)
           (padded_circuit "alu8" 3) 0.015 );
       ( analyze_request ~fields:measured (padded_circuit "datapath32" 4) 0.01,
         analyze_request ~fields:measured (padded_circuit "datapath32" 4) 0.02
       );
       ( analyze_request ~fields:measured random 0.01,
         analyze_request ~fields:(tech_field "nanodev" :: measured) random 0.02
       );
       ( analyze_request ~fields:measured (named "alu8") 0.01,
         analyze_request ~fields:measured (named "alu8") 0.04 );
       ( analyze_request (named "c17") 0.01,
         analyze_request ~fields:[ tech_field "cmos55" ] (named "c17") 0.02 );
       ( request_line
           (("kind", Json.String "profile") :: padded_circuit "parity16" 5),
         analyze_request ~fields:measured (padded_circuit "parity16" 5) 0.02 );
       ( analyze_request ~fields:(no_map :: measured) (padded_circuit "rca8" 6)
           0.01,
         analyze_request ~fields:(no_map :: measured) (padded_circuit "rca8" 6)
           0.03 );
       (* A new epsilon list misses the grid memo: the revisit measures
          lanes again, on the netlist its profile entry holds. *)
       ( analyze_request ~fields:measured (padded_circuit "csel16" 7) 0.01,
         analyze_request
           ~fields:
             [
               ("epsilons", Json.List [ Json.Float 0.02; Json.Float 0.1 ]);
               ("measure", Json.Bool true);
               ("vectors", Json.Int 256);
             ]
           (padded_circuit "csel16" 7) 0.02 );
       (* A profile request fills the entry a priced analyze then reads. *)
       ( request_line
           (("kind", Json.String "profile") :: padded_circuit "bcdadd8" 8),
         analyze_request ~fields:[ tech_field "nanodev" ]
           (padded_circuit "bcdadd8" 8) 0.02 );
     ])

(* The MD5 of one service's replies to the stream, one per line,
   recorded before profile entries held their netlist packed (the
   stream without its last two pairs read
   8b5d889bc760657af08ce98c75ab032a before revisits reused their lint
   preflight). Each revisit must also answer what a fresh service
   answers to the same line. *)
let revisit_pin = "ba9141ab433279221af1d0576e8e85c3"

let test_revisit_replies_pinned () =
  let t = make_service () in
  let replies = Buffer.create 65536 in
  List.iter
    (fun (visit, revisit) ->
      let v = Service.handle_line t visit in
      let r = Service.handle_line t revisit in
      Alcotest.(check bool) "visit ok" true (reply_ok v);
      Alcotest.(check string) "revisit = fresh service's reply"
        (Service.handle_line (make_service ()) revisit)
        r;
      List.iter
        (fun s ->
          Buffer.add_string replies s;
          Buffer.add_char replies '\n')
        [ v; r ])
    (Lazy.force revisit_pairs);
  Alcotest.(check string) "reply pin" revisit_pin
    (Digest.to_hex (Digest.string (Buffer.contents replies)));
  let pairs = List.length (Lazy.force revisit_pairs) in
  Alcotest.(check (pair int int)) "each visit lints, each revisit reuses"
    (pairs, pairs) (preflight_counts t);
  let stats = stats_of_service t in
  Alcotest.(check int) "every reply computed" (2 * pairs)
    (cache_counter stats ~cache:"responses" ~field:"misses");
  Alcotest.(check int) "no reply served twice" 0
    (cache_counter stats ~cache:"responses" ~field:"hits")

let has_lint reply =
  match Json.parse reply with
  | Ok v ->
    Option.bind (Json.member "result" v) (Json.member "lint") <> None
  | Error _ -> false

(* Measured analyze lines over one padded alu8 spelling, which draws a
   preflight: the visit at delta 0.01, revisits at other deltas. *)
let memo_revisit delta =
  analyze_request ~fields:measured_fields (padded_circuit "alu8" 9) delta

let memo_visit = memo_revisit 0.01

(* Runs [lines] on [t] and checks each reply against a fresh service's,
   each one carrying the preflight [lint] says. *)
let check_fresh ?(lint = true) t lines =
  List.iter
    (fun line ->
      let reply = Service.handle_line t line in
      Alcotest.(check bool) "ok" true (reply_ok reply);
      Alcotest.(check bool) "lint member" lint (has_lint reply);
      Alcotest.(check string) "reply = fresh service's"
        (Service.handle_line (make_service ()) line)
        reply)
    lines

let test_revisit_reuses_preflight () =
  let t = make_service () in
  check_fresh t [ memo_visit; memo_revisit 0.02 ];
  Alcotest.(check (pair int int)) "visit lints, revisit reuses" (1, 1)
    (preflight_counts t);
  (* A profile and an analyze of one spelling share the text too. *)
  let t = make_service () in
  check_fresh t
    [
      request_line
        (("kind", Json.String "profile") :: padded_circuit "alu8" 9);
      memo_revisit 0.03;
    ];
  Alcotest.(check (pair int int)) "profile lints, analyze reuses" (1, 1)
    (preflight_counts t);
  (* A clean circuit attaches nothing and lints once. *)
  let t = make_service () in
  check_fresh ~lint:false t
    [
      analyze_request [ ("circuit", Json.String "c17") ] 0.01;
      analyze_request [ ("circuit", Json.String "c17") ] 0.02;
    ];
  Alcotest.(check (pair int int)) "clean: linted once" (1, 1)
    (preflight_counts t)

(* The reply that held the text is gone: the revisit lints again, and
   the next revisit reuses what that one stored. *)
let test_revisit_after_holder_evicted () =
  let t = make_service ~cache:2 () in
  check_fresh t [ memo_visit ];
  List.iter
    (fun delta ->
      ignore
        (Service.handle_line t
           (Printf.sprintf {|{"kind":"bounds","delta":%g}|} delta)))
    [ 0.02; 0.03 ];
  check_fresh t [ memo_revisit 0.02 ];
  Alcotest.(check (pair int int)) "holder evicted: linted again" (2, 0)
    (preflight_counts t);
  check_fresh t [ memo_revisit 0.03 ];
  Alcotest.(check (pair int int)) "the new holder serves" (2, 1)
    (preflight_counts t);
  let stats = stats_of_service t in
  Alcotest.(check int) "one eviction per add past capacity" 3
    (cache_counter stats ~cache:"responses" ~field:"evictions");
  (* With caching off nothing holds the text, and nothing is reused. *)
  let t = make_service ~cache:0 () in
  check_fresh t [ memo_visit; memo_revisit 0.02 ];
  Alcotest.(check (pair int int)) "capacity 0: every reply lints" (2, 0)
    (preflight_counts t)

let test_revisit_after_journal_warm () =
  let path = Filename.temp_file "nano_service" ".journal" in
  Sys.remove path;
  let config =
    {
      (Service.default_config ()) with
      Service.jobs = 1;
      cache_capacity = 64;
      journal = Some path;
    }
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let writer = Service.create ~config () in
      let cold = Service.handle_line writer memo_visit in
      Service.close writer;
      let reader = Service.create ~config () in
      Alcotest.(check string) "journal hit = cold bytes" cold
        (Service.handle_line reader memo_visit);
      check_fresh reader [ memo_revisit 0.02 ];
      Alcotest.(check (pair int int)) "journal warm-up: linted again"
        (1, 0) (preflight_counts reader);
      check_fresh reader [ memo_revisit 0.03 ];
      Alcotest.(check (pair int int)) "then reused" (1, 1)
        (preflight_counts reader);
      Service.close reader)

(* ------------------------------------------------------------------ *)
(* Mutated request lines.                                               *)
(* ------------------------------------------------------------------ *)

(* Request lines with BLIF payloads, the bases the mutations start
   from. *)
let mutation_bases =
  lazy
    (let c17 = padded_circuit "c17" 11 in
     let memo = blif_circuit memo_blif in
     Array.of_list
       [
         analyze_request ~fields:measured_fields c17 0.02;
         analyze_request ~fields:[ tech_field "nanodev" ] memo 0.01;
         request_line (("kind", Json.String "profile") :: c17);
         request_line
           ((("kind", Json.String "profile") :: memo)
           @ [ ("no_map", Json.Bool true) ]);
         request_line
           ((("kind", Json.String "lint") :: c17)
           @ [ ("max_fanin", Json.Int 2) ]);
         request_line
           ((("kind", Json.String "static") :: memo)
           @ [ ("epsilon", Json.Float 0.02); ("cone_budget", Json.Int 64) ]);
       ])

type mutation =
  | Flip of int * char  (** one byte replaced *)
  | Truncate of int
  | Drop of int  (** one member removed *)
  | Duplicate of int  (** one member written twice *)
  | Not_an_object of int

let mutate line = function
  | Flip _ | Truncate _ when line = "" -> line
  | Flip (at, c) ->
    let b = Bytes.of_string line in
    Bytes.set b (at mod Bytes.length b) c;
    Bytes.to_string b
  | Truncate at -> String.sub line 0 (at mod String.length line)
  | (Drop i | Duplicate i) as m -> (
    match Json.parse line with
    | Ok (Json.Obj fields) when fields <> [] ->
      let i = i mod List.length fields in
      Json.to_string
        (Json.Obj
           (List.concat
              (List.mapi
                 (fun j field ->
                   if j <> i then [ field ]
                   else match m with Drop _ -> [] | _ -> [ field; field ])
                 fields)))
    | _ -> line)
  | Not_an_object k -> (
    match k mod 4 with
    | 0 -> "[" ^ line ^ "]"
    | 1 -> Json.to_string (Json.String line)
    | 2 -> string_of_int k
    | _ -> "null")

let gen_mutated_line =
  QCheck2.Gen.(
    let one =
      frequency
        [
          ( 4,
            map2
              (fun at c -> Flip (at, c))
              nat
              (frequency [ (3, printable); (1, char) ]) );
          (1, map (fun at -> Truncate at) nat);
          (3, map (fun i -> Drop i) nat);
          (1, map (fun i -> Duplicate i) nat);
          (1, map (fun k -> Not_an_object k) nat);
        ]
    in
    pair (int_bound 5) (list_size (int_range 1 2) one))

(* A well-formed reply: one line of JSON whose [ok] is a bool, and a
   failure carries an error code. *)
let well_formed reply =
  (not (String.contains reply '\n'))
  &&
  match Json.parse reply with
  | Ok v -> (
    match Json.member "ok" v with
    | Some (Json.Bool true) -> true
    | Some (Json.Bool false) -> error_code reply <> None
    | _ -> false)
  | Error _ -> false

(* Every mutated line gets a well-formed reply, and the service keeps
   answering a fixed analyze line with its bytes. Two entries per cache,
   so the fixed line's reply and its spelling's identity are often
   evicted by the mutants and computed again, through the preflight
   memo. *)
let prop_mutated_lines =
  let fixed = memo_revisit 0.04 in
  let expected = lazy (Service.handle_line (make_service ()) fixed) in
  let t = lazy (make_service ~cache:2 ()) in
  QCheck2.Test.make ~name:"mutated request lines get structured replies"
    ~count:500 gen_mutated_line (fun (base, mutations) ->
      let t = Lazy.force t in
      let line =
        List.fold_left mutate (Lazy.force mutation_bases).(base) mutations
      in
      well_formed (Service.handle_line t line)
      && Service.handle_line t fixed = Lazy.force expected)

(* ------------------------------------------------------------------ *)
(* stdio transport.                                                     *)
(* ------------------------------------------------------------------ *)

let run_stdio_on_input ?(max_bytes = 1 lsl 20) input =
  let in_path = Filename.temp_file "nano_service" ".in" in
  let out_path = Filename.temp_file "nano_service" ".out" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove in_path;
      Sys.remove out_path)
    (fun () ->
      let oc = open_out in_path in
      output_string oc input;
      close_out oc;
      let t = make_service ~max_bytes () in
      let ic = open_in in_path in
      let oc = open_out out_path in
      Service.run_stdio t ic oc;
      close_in ic;
      close_out oc;
      let ic = open_in out_path in
      let n = in_channel_length ic in
      let contents = really_input_string ic n in
      close_in ic;
      contents)

let test_stdio_transport () =
  let out =
    run_stdio_on_input
      ({|{"kind":"ping"}|} ^ "\n" ^ analyze_line ^ "\n" ^ analyze_line ^ "\n")
  in
  let lines = String.split_on_char '\n' (String.trim out) in
  (match lines with
  | [ pong; cold; warm ] ->
    Alcotest.(check bool) "pong" true (reply_ok pong);
    Alcotest.(check string) "stdio warm = cold" cold warm
  | _ -> Alcotest.failf "expected 3 reply lines, got %d" (List.length lines))

let test_stdio_shutdown_stops_loop () =
  let out =
    run_stdio_on_input
      ({|{"kind":"shutdown"}|} ^ "\n" ^ {|{"kind":"ping"}|} ^ "\n")
  in
  let lines = String.split_on_char '\n' (String.trim out) in
  Alcotest.(check int) "only the shutdown reply" 1 (List.length lines)

let test_stdio_oversized_line () =
  let out =
    run_stdio_on_input ~max_bytes:64
      (String.make 1000 'x' ^ "\n" ^ {|{"kind":"ping"}|} ^ "\n")
  in
  let lines = String.split_on_char '\n' (String.trim out) in
  match lines with
  | [ err; pong ] ->
    Alcotest.(check (option string)) "oversized error" (Some "oversized")
      (error_code err);
    Alcotest.(check bool) "next request still served" true (reply_ok pong)
  | _ -> Alcotest.failf "expected 2 reply lines, got %d" (List.length lines)

let suite =
  [
    Alcotest.test_case "cache: LRU eviction order" `Quick
      test_cache_lru_eviction;
    Alcotest.test_case "cache: hit/miss counters" `Quick test_cache_counters;
    Alcotest.test_case "cache: capacity zero" `Quick test_cache_capacity_zero;
    Alcotest.test_case "cache: peek is uncounted" `Quick
      test_cache_peek_uncounted;
    Alcotest.test_case "protocol: round-trip" `Quick test_protocol_roundtrip;
    Alcotest.test_case "protocol: defaults" `Quick test_protocol_defaults;
    Alcotest.test_case "protocol: rejects" `Quick test_protocol_rejects;
    Helpers.qcheck prop_spliced_reply;
    Alcotest.test_case "protocol: splice needs an object" `Quick
      test_spliced_reply_needs_fields;
    Alcotest.test_case "bounds = direct evaluation" `Quick
      test_bounds_matches_direct_evaluation;
    Alcotest.test_case "cache hit byte-identical" `Quick
      test_cache_hit_is_byte_identical;
    Alcotest.test_case "jobs-independent replies" `Quick
      test_jobs_independent_replies;
    Alcotest.test_case "profile core shared with analyze" `Quick
      test_profile_core_shared_with_analyze;
    Alcotest.test_case "rename-only BLIF shares profile core" `Quick
      test_rename_only_blif_shares_profile_core;
    Alcotest.test_case "bounds at eps = 1/2 encode as null" `Quick
      test_coin_flip_bounds_are_null;
    Alcotest.test_case "bounds at tiny eps answer ok" `Quick
      test_tiny_epsilon_bounds_answer;
    Alcotest.test_case "structured errors" `Quick test_structured_errors;
    Alcotest.test_case "static request cached + exact" `Quick
      test_static_request;
    Alcotest.test_case "static tech floor" `Quick test_static_tech_floor;
    Alcotest.test_case "daemon survives errors" `Quick
      test_error_then_service_still_up;
    Alcotest.test_case "batch coalescing" `Quick test_batch_coalescing;
    Alcotest.test_case "shutdown flag" `Quick test_shutdown_flag;
    Alcotest.test_case "identity memo serves hits" `Quick
      test_identity_memo_serves_hits;
    Alcotest.test_case "identity memo hit, response miss = cold" `Quick
      test_identity_memo_miss_path_matches_cold;
    Alcotest.test_case "identity memo never holds failures" `Quick
      test_identity_memo_never_holds_failures;
    Alcotest.test_case "journal-warmed lines all hit" `Quick
      test_journal_warmed_lines_hit;
    Alcotest.test_case "cold measured analyze compiles once" `Quick
      test_cold_measure_compiles_once;
    Alcotest.test_case "digest-equal spellings keep their replies" `Quick
      test_digest_equal_spellings_keep_their_replies;
    Alcotest.test_case "revisit replies pinned" `Quick
      test_revisit_replies_pinned;
    Alcotest.test_case "revisit reuses the preflight" `Quick
      test_revisit_reuses_preflight;
    Alcotest.test_case "revisit after its holder is evicted" `Quick
      test_revisit_after_holder_evicted;
    Alcotest.test_case "revisit after a journal warm-up" `Quick
      test_revisit_after_journal_warm;
    Helpers.qcheck prop_mutated_lines;
    Alcotest.test_case "stdio transport" `Quick test_stdio_transport;
    Alcotest.test_case "stdio shutdown stops loop" `Quick
      test_stdio_shutdown_stops_loop;
    Alcotest.test_case "stdio oversized line" `Quick
      test_stdio_oversized_line;
  ]
