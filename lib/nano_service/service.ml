module Json = Nano_util.Json
module Par = Nano_util.Par
module Metrics = Nano_bounds.Metrics
module Profile = Nano_bounds.Profile
module Benchmark_eval = Nano_bounds.Benchmark_eval
module Figures = Nano_bounds.Figures
module Netlist = Nano_netlist.Netlist
module Lint = Nano_lint.Lint

type config = {
  jobs : int;
  cache_capacity : int;
  max_request_bytes : int;
  default_timeout_ms : int option;
  trace : bool;
  journal : string option;
  workers : int;
  max_clients : int;
  max_pending : int;
  max_reply_bytes : int;
}

let default_config () =
  {
    jobs = Par.default_jobs ();
    cache_capacity = 256;
    max_request_bytes = 8 * 1024 * 1024;
    default_timeout_ms = None;
    trace = false;
    journal = None;
    workers = 0;
    max_clients = 960;
    max_pending = 1024;
    max_reply_bytes = 64 * 1024 * 1024;
  }

(* A cached reply line: whole, or a head and the lint preflight text
   that completes it, [head ^ preflight ^ "}}"] (see
   {!Protocol.ok_reply_head}). Every cached reply of one spelling holds
   that spelling's preflight as one physical string. Journal-loaded
   replies stay whole. *)
type reply = Whole of string | Spliced of { head : string; preflight : string }

let reply_text = function
  | Whole text -> text
  | Spliced { head; preflight } -> String.concat "" [ head; preflight; "}}" ]

(* Where a spelling's preflight is, never the text itself: not linted
   yet; clean (no warning or error, so replies carry no [lint] field);
   or held by the cached reply at this response key, if that reply is
   still cached. *)
type preflight = Unknown | Clean | Held_by of string

type identity = {
  name : string;
  digest : string;  (** [Strash.digest] of the netlist *)
  mutable preflight : preflight;
}

(* A profile and what else its measurement leaves that a later request
   of the same circuit reads: the netlist it measured, packed
   ({!Netlist.pack}), and the one-counts of its pinned activity run,
   which give a tech report its activities. A few bytes a node. *)
type measured = {
  profile : Profile.t;
  packed : string;
  counts : Nano_sim.Activity.counts;
}

type t = {
  config : config;
  responses : reply Cache.t;  (** reply per content-addressed key *)
  profiles : measured Cache.t;  (** the expensive Monte-Carlo part *)
  circuits : identity Cache.t;
      (** circuit spelling to identity; never the netlist or preflight
          text, so its footprint stays a few strings per entry *)
  grids : Benchmark_eval.lane array Cache.t;
      (** a measured analyze's Monte-Carlo lanes, which no δ reads; a
          few floats per ε, never a netlist or a lint preflight *)
  metrics : Service_metrics.t;
  journal : Journal.t option;
      (** on-disk backing of [responses]; [None] when persistence is
          off or when this process only routes to workers *)
  mutable lint_hits : int;
      (** lint replies served from the response cache *)
  mutable lint_misses : int;  (** lint replies computed fresh *)
  mutable static_hits : int;
      (** static-analysis replies served from the response cache *)
  mutable static_misses : int;  (** static-analysis replies computed fresh *)
  mutable tech_reports : int;
      (** technology reports computed fresh (cache hits excluded) *)
  mutable preflights_computed : int;  (** preflights linted *)
  mutable preflights_reused : int;
      (** preflights taken from a spelling's known state instead *)
  mutable stop : bool;
}

let shard_path path shard = Printf.sprintf "%s.shard%d" path shard

let create ?config () =
  let config = match config with Some c -> c | None -> default_config () in
  let responses = Cache.create ~capacity:config.cache_capacity in
  (* A sharding master never evaluates, so it owns no journal; each
     worker opens its own shard file instead (see [worker_main]). *)
  let journal =
    match config.journal with
    | Some path when config.workers = 0 ->
      Some
        (Journal.load ~path (fun ~key ~value ->
             Cache.add responses key (Whole value)))
    | Some path ->
      (* Refuse a shard that is not a journal before any worker forks. *)
      for shard = 0 to config.workers - 1 do
        Journal.check ~path:(shard_path path shard)
      done;
      None
    | None -> None
  in
  {
    config;
    responses;
    profiles = Cache.create ~capacity:config.cache_capacity;
    circuits = Cache.create ~capacity:config.cache_capacity;
    grids = Cache.create ~capacity:config.cache_capacity;
    metrics = Service_metrics.create ~now:(Unix.gettimeofday ());
    journal;
    lint_hits = 0;
    lint_misses = 0;
    static_hits = 0;
    static_misses = 0;
    tech_reports = 0;
    preflights_computed = 0;
    preflights_reused = 0;
    stop = false;
  }

let close t = match t.journal with Some j -> Journal.close j | None -> ()

let shutdown_requested t = t.stop

(* Structured per-request failures; they become error replies, never
   daemon deaths. *)
exception Reply_error of string * string (* code, message *)
exception Timed_out

let check_deadline = function
  | Some d when Unix.gettimeofday () > d -> raise Timed_out
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Request evaluation.                                                  *)
(* ------------------------------------------------------------------ *)

let resolve_circuit = function
  | Protocol.Named name -> (
    match Nano_circuits.Suite.find name with
    | Some entry -> (name, entry.Nano_circuits.Suite.build ())
    | None ->
      raise
        (Reply_error
           ( "unknown_circuit",
             name ^ ": not a built-in benchmark (see `nanobound suite')" )))
  | Protocol.Blif text -> (
    match Nano_blif.Blif.parse_string text with
    | Ok netlist -> (Netlist.name netlist, netlist)
    | Error e ->
      raise
        (Reply_error
           ( "blif_parse_error",
             Format.asprintf "%a" Nano_blif.Blif.pp_error e )))

(* A circuit as [prepare] sees it: the identity its cache keys need,
   known before any lookup, and the netlist, built only when a layer
   needs it (a profile miss, a preflight linted again). The spelling
   ([name:<suite name>] or [blif:<MD5 of the text>]) names the netlist
   exactly; the strash digest names only its structure up to
   strashing, which spellings with different raw netlists can share.
   [strashed] is [Strash.run] of the netlist: the digest's source and
   the mapping's first step, computed once per request and never
   cached. *)
type circuit = {
  spelling : string;
  identity : identity;
  netlist : Netlist.t Lazy.t;
  strashed : Netlist.t Lazy.t;
}

(* Spelling → identity memo. Suite builds, BLIF parsing and strash are
   pure functions of the spelling, so a remembered (name, digest) is
   exactly what resolving again would compute; BLIF text is keyed by
   its MD5, the assumption [lint|blif:] keys already make. Only
   successes are remembered: a failing spelling resolves, and raises its
   error reply, every time. *)
let identify t circuit =
  let spelling =
    match circuit with
    | Protocol.Named name -> "name:" ^ name
    | Protocol.Blif text -> "blif:" ^ Digest.to_hex (Digest.string text)
  in
  match Cache.find t.circuits spelling with
  | Some identity ->
    let netlist = lazy (snd (resolve_circuit circuit)) in
    {
      spelling;
      identity;
      netlist;
      strashed = lazy (Nano_synth.Strash.run (Lazy.force netlist));
    }
  | None ->
    let name, netlist = resolve_circuit circuit in
    let strashed = Nano_synth.Strash.run netlist in
    let identity =
      { name; digest = Netlist.digest strashed; preflight = Unknown }
    in
    Cache.add t.circuits spelling identity;
    {
      spelling;
      identity;
      netlist = Lazy.from_val netlist;
      strashed = Lazy.from_val strashed;
    }

(* Technology-pack resolution: a name looks up a built-in, an inline
   object goes through the JSON loader. Both failure shapes are error
   replies (never cached), and both spellings of the same pack share
   one canonical digest, so they coalesce onto one cache entry. *)
let resolve_tech = function
  | Protocol.Tech_named name -> (
    match Nano_tech.Builtin.find name with
    | Some pack -> pack
    | None ->
      raise
        (Reply_error
           ( "unknown_tech",
             name ^ ": not a built-in technology pack (see `nanobound tech')"
           )))
  | Protocol.Tech_inline json -> (
    match Nano_tech.Loader.of_json json with
    | Ok pack -> pack
    | Error diagnostics ->
      raise
        (Reply_error
           ( "invalid_tech",
             String.concat "; "
               (List.map
                  (fun d -> Format.asprintf "%a" Nano_lint.Diagnostic.pp d)
                  diagnostics) )))

let fr = Json.float_repr

(* Profile of the (optionally mapped) circuit. A mapped profile depends
   only on the strashed structure ([rugged_lite] strashes first), so it
   is keyed on the strash digest and shared across requests, and across
   differing model names, which only relabel the result. An unmapped
   profile measures the raw netlist, so it is keyed on the spelling.
   The measured netlist comes back too, and the counts of the profile's
   activity run: on a miss the netlist the profile measured, so the
   grid reuses its compiled program; on a hit the entry's packed
   netlist, unpacked on demand, so a revisit neither parses nor maps.
   Spellings that share a mapped entry map to netlists equal up to the
   model name, which no reply reads. *)
let profile_for t ~deadline (c : circuit) ~no_map =
  let core_key =
    Printf.sprintf "profile-core|%s|%b"
      (if no_map then c.spelling else c.identity.digest)
      no_map
  in
  let entry, netlist =
    match Cache.find t.profiles core_key with
    | Some e -> (e, lazy (Netlist.unpack e.packed))
    | None ->
      check_deadline deadline;
      let netlist =
        if no_map then Lazy.force c.netlist
        else
          Nano_synth.Script.rugged_lite_strashed ~max_fanin:3
            (Lazy.force c.strashed)
      in
      let profile, counts =
        Profile.of_netlist_counted ~jobs:t.config.jobs netlist
      in
      let e = { profile; packed = Netlist.pack netlist; counts } in
      Cache.add t.profiles core_key e;
      (e, Lazy.from_val netlist)
  in
  let profile = { entry.profile with Profile.name = c.identity.name } in
  ({ entry with profile }, netlist)

(* The Monte-Carlo lanes of a measured analyze. They read the (mapped)
   circuit, the ε list and the vector budget, never δ or the leakage
   share, so a revisit with a new δ reuses them and maps, lowers and
   simulates nothing. Keyed on the spelling, like the unmapped profile:
   with [no_map] the lanes measure the raw netlist. *)
let lanes_for t (c : circuit) ~no_map ~epsilons ~vectors mapped =
  let key =
    Printf.sprintf "grid|%s|%b|%s|%d" c.spelling no_map
      (String.concat "," (List.map fr epsilons))
      vectors
  in
  match Cache.find t.grids key with
  | Some lanes -> lanes
  | None ->
    let lanes =
      Benchmark_eval.measure ~epsilons ~vectors ~jobs:t.config.jobs
        (Lazy.force mapped)
    in
    Cache.add t.grids key lanes;
    lanes

(* Pre-flight: static-analysis findings on the input netlist (before
   any mapping), the serialized [lint] member that ends analyze and
   profile replies, or [None] when there is nothing to say (clean
   circuits keep byte-identical replies with earlier releases). A
   function of the spelling, so the spelling's state answers it when it
   can: clean, or the text of the cached reply that holds it, read
   without touching that reply's statistics or recency. Otherwise the
   netlist is linted. Text reused or linted then moves the state to
   [key], the reply about to be cached: the newest of the spelling's
   replies, so the last of them to be evicted. *)
let preflight_for t (c : circuit) ~key =
  let id = c.identity in
  let held =
    match id.preflight with
    | Held_by k -> (
      match Cache.peek t.responses k with
      | Some (Spliced { preflight; _ }) -> Some preflight
      | Some (Whole _) | None -> None)
    | Unknown | Clean -> None
  in
  match (id.preflight, held) with
  | Clean, _ ->
    t.preflights_reused <- t.preflights_reused + 1;
    None
  | _, Some _ ->
    t.preflights_reused <- t.preflights_reused + 1;
    id.preflight <- Held_by key;
    held
  | _, None -> (
    t.preflights_computed <- t.preflights_computed + 1;
    let report = Lint.run_netlist ~digest:id.digest (Lazy.force c.netlist) in
    match Lint.preflight_json report with
    | None ->
      id.preflight <- Clean;
      None
    | Some pj ->
      id.preflight <- Held_by key;
      Some (Json.to_string pj))

(* The measured-δ̂ figure simulates a small set of suite circuits over
   the default ε grid — one batched multi-lane pass per circuit
   ({!Figures.measured_delta}), so the whole figure costs a few
   simulations rather than circuits × grid points. *)
let delta_figure_circuits = [ "c17"; "rca8"; "parity16" ]

let sweep_series ~jobs figure =
  match figure with
  | "fig2" -> Some (Figures.fig2_activity_map ~jobs ())
  | "fig3" -> Some (Figures.fig3_redundancy ~jobs ())
  | "fig4" -> Some (Figures.fig4_leakage ~jobs ())
  | "fig5" -> Some (Figures.fig5_delay_and_edp ~jobs ())
  | "fig6" -> Some (Figures.fig6_average_power ~jobs ())
  | "omega" -> Some (Figures.ablation_omega_models ~jobs ())
  | "delta" ->
    let circuits =
      List.filter_map
        (fun name ->
          Option.map
            (fun e -> (name, e.Nano_circuits.Suite.build ()))
            (Nano_circuits.Suite.find name))
        delta_figure_circuits
    in
    Some (Figures.measured_delta ~jobs circuits)
  | _ -> None

(* A request prepared for execution: its content-addressed key (when
   cacheable) is known before any expensive work runs, which is what
   both the response cache and in-flight coalescing hang off. [run]
   returns the result and, apart from it, the serialized preflight
   that ends it as its [lint] member, if any. *)
type prepared = { key : string option; run : unit -> Json.t * string option }

let plain json = (json, None)

let prepare t ~deadline (env : Protocol.envelope) =
  match env.Protocol.request with
  | Protocol.Ping -> { key = None; run = (fun () -> plain (Json.String "pong")) }
  | Protocol.Shutdown ->
    {
      key = None;
      run =
        (fun () ->
          t.stop <- true;
          plain (Json.String "bye"));
    }
  | Protocol.Stats ->
    {
      key = None;
      run =
        (fun () ->
          let memo = Nano_netlist.Compiled.memo_stats () in
          plain
          @@ Service_metrics.to_json t.metrics
            ~extra:
              ([
                ( "compiled_programs",
                  Json.Obj
                    [
                      ( "memo_hits",
                        Json.Int memo.Nano_netlist.Compiled.memo_hits );
                      ( "memo_misses",
                        Json.Int memo.Nano_netlist.Compiled.memo_misses );
                      ( "default_block_width",
                        Json.Int (Nano_netlist.Compiled.default_block_width ())
                      );
                      ( "simd_level",
                        Json.String (Nano_util.Prng.simd_level ()) );
                    ] );
                ( "lint_cache",
                  Json.Obj
                    [
                      ("hits", Json.Int t.lint_hits);
                      ("misses", Json.Int t.lint_misses);
                    ] );
                ( "preflights",
                  Json.Obj
                    [
                      ("computed", Json.Int t.preflights_computed);
                      ("reused", Json.Int t.preflights_reused);
                    ] );
                ( "static_cache",
                  Json.Obj
                    [
                      ("hits", Json.Int t.static_hits);
                      ("misses", Json.Int t.static_misses);
                    ] );
                ( "tech_packs",
                  Json.Obj
                    [
                      ( "builtin",
                        Json.List
                          (List.map
                             (fun p ->
                               Json.Obj
                                 [
                                   ( "name",
                                     Json.String p.Nano_tech.Pack.name );
                                   ( "digest",
                                     Json.String (Nano_tech.Pack.digest p) );
                                 ])
                             Nano_tech.Builtin.all) );
                      ("reports", Json.Int t.tech_reports);
                    ] );
              ]
              @ (match t.journal with
                | None -> []
                | Some j ->
                  [
                    ( "journal",
                      Json.Obj
                        [
                          ("path", Json.String (Journal.path j));
                          ("recovered", Json.Int (Journal.entries_recovered j));
                          ("appended", Json.Int (Journal.appended j));
                          ( "truncated_bytes",
                            Json.Int (Journal.bytes_truncated j) );
                        ] );
                  ]))
            ~caches:
              [
                ("responses", Cache.stats t.responses);
                ("profiles", Cache.stats t.profiles);
                ("circuits", Cache.stats t.circuits);
                ("grids", Cache.stats t.grids);
              ]
            ~now:(Unix.gettimeofday ()));
    }
  | Protocol.Bounds scenario ->
    if not (Metrics.scenario_valid scenario) then
      raise
        (Reply_error
           ("invalid_scenario", "parameters outside the theorems' domain"));
    let key =
      Printf.sprintf "bounds|%s|%s|%d|%d|%d|%d|%s|%s"
        (fr scenario.Metrics.epsilon)
        (fr scenario.Metrics.delta)
        scenario.Metrics.fanin scenario.Metrics.sensitivity
        scenario.Metrics.error_free_size scenario.Metrics.inputs
        (fr scenario.Metrics.sw0)
        (fr scenario.Metrics.leakage_share0)
    in
    {
      key = Some key;
      run =
        (fun () -> plain (Protocol.bounds_to_json (Metrics.evaluate scenario)));
    }
  | Protocol.Profile { circuit; no_map } ->
    let c = identify t circuit in
    let key = Printf.sprintf "profile|%s|%b" c.spelling no_map in
    {
      key = Some key;
      run =
        (fun () ->
          let { profile; _ }, _ = profile_for t ~deadline c ~no_map in
          (Protocol.profile_to_json profile, preflight_for t c ~key));
    }
  | Protocol.Analyze
      { circuit; delta; leakage_share0; epsilons; no_map; measure; vectors;
        tech } ->
    let c = identify t circuit in
    (* Resolved before the cache key so bad packs are error replies
       (never cached), and so named/inline spellings of one pack key
       on the same canonical digest. *)
    let tech = Option.map resolve_tech tech in
    let key =
      Printf.sprintf "analyze|%s|%b|%s|%s|%s|%b|%d%s" c.spelling no_map
        (fr delta) (fr leakage_share0)
        (String.concat "," (List.map fr epsilons))
        measure vectors
        (* Appended only when present: pre-tech requests keep their
           exact pre-tech keys, so warm journals stay valid. *)
        (match tech with
        | None -> ""
        | Some pack -> "|tech:" ^ Nano_tech.Pack.digest pack)
    in
    {
      key = Some key;
      run =
        (fun () ->
          let { profile; counts; _ }, mapped =
            profile_for t ~deadline c ~no_map
          in
          check_deadline deadline;
          (* The absolute-energy block rides after "rows"; replies
             without --tech carry no block at all and stay
             byte-identical to earlier releases. Its activities are the
             profile's own run's. *)
          let tech_fields () =
            match tech with
            | None -> []
            | Some pack ->
              let report =
                Nano_tech.Report.analyze ~delta ~epsilons
                  ~node_activity:
                    (Nano_sim.Activity.node_activity_of_counts counts)
                  ~pack ~profile (Lazy.force mapped)
              in
              t.tech_reports <- t.tech_reports + 1;
              [ ("tech", Nano_tech.Report.to_json report) ]
          in
          if measure then begin
            (* One batched multi-ε pass over the circuit the profile
               was measured on covers the whole grid, with jobs
               sharding vectors inside it (jobs-independent). *)
            let rows =
              Benchmark_eval.measured_rows ~deltas:[ delta ] ~leakage_share0
                ~epsilons ~profile
                (lanes_for t c ~no_map ~epsilons ~vectors mapped)
            in
            let result =
              Json.Obj
                ([
                   ("profile", Protocol.profile_to_json profile);
                   ( "rows",
                     Json.List (List.map Protocol.measured_row_to_json rows) );
                 ]
                @ tech_fields ())
            in
            (result, preflight_for t c ~key)
          end
          else begin
            (* The per-ε closed-form grid batches onto the domain pool;
               values are jobs-independent (Nano_util.Par contract). *)
            let rows =
              Par.map_list ~jobs:t.config.jobs
                (fun epsilon ->
                  Benchmark_eval.evaluate_profile ~delta ~leakage_share0
                    profile ~epsilon)
                epsilons
            in
            let result =
              Json.Obj
                ([
                   ("profile", Protocol.profile_to_json profile);
                   ("rows", Json.List (List.map Protocol.row_to_json rows));
                 ]
                @ tech_fields ())
            in
            (result, preflight_for t c ~key)
          end);
    }
  | Protocol.Lint { circuit; max_fanin; epsilon; delta } ->
    let options = { Lint.max_fanin; epsilon; delta } in
    let params =
      Printf.sprintf "%d|%s|%s" max_fanin (fr epsilon) (fr delta)
    in
    (* Content address: the strash digest for circuits that elaborate
       (named benchmarks), the raw text digest for BLIF — front-end
       diagnostics depend on the text (line numbers, dead covers), not
       just the elaborated structure. Parse and lint failures are
       reports here, never error replies. *)
    (match circuit with
    | Protocol.Named _ ->
      let { identity = { name; digest; _ }; netlist; _ } =
        identify t circuit
      in
      {
        key = Some (Printf.sprintf "lint|net:%s|%s|%s" digest name params);
        run =
          (fun () ->
            plain
              (Lint.report_to_json
                 (Lint.run_netlist ~options ~digest (Lazy.force netlist))));
      }
    | Protocol.Blif text ->
      {
        key =
          Some
            (Printf.sprintf "lint|blif:%s|%s"
               (Digest.to_hex (Digest.string text))
               params);
        run =
          (fun () ->
            plain (Lint.report_to_json (Lint.run_blif_string ~options text)));
      })
  | Protocol.Static { circuit; epsilon; input_probability; cone_budget; tech }
    ->
    let c = identify t circuit in
    (* Bad packs become error replies before any key exists (never
       cached); the effective ε is floored at the pack's intrinsic ε,
       matching both the tech report's bound rows and the CLI verb. *)
    let tech = Option.map resolve_tech tech in
    let epsilon =
      match tech with
      | None -> epsilon
      | Some pack -> Nano_tech.Pack.effective_epsilon pack epsilon
    in
    let key =
      Printf.sprintf "static|%s|%s|%s|%d" c.spelling (fr epsilon)
        (fr input_probability) cone_budget
    in
    {
      key = Some key;
      run =
        (fun () ->
          check_deadline deadline;
          let netlist = Lazy.force c.netlist in
          let analysis =
            Nano_static.Static.analyze ~input_probability ~cone_budget
              ~epsilon netlist
          in
          plain (Nano_static.Static.to_json analysis netlist));
    }
  | Protocol.Sweep { figure } ->
    let key = Printf.sprintf "sweep|%s" figure in
    {
      key = Some key;
      run =
        (fun () ->
          check_deadline deadline;
          let series =
            match sweep_series ~jobs:t.config.jobs figure with
            | Some series -> series
            | None ->
              raise
                (Reply_error
                   ( "unknown_figure",
                     figure ^ ": expected fig2..fig6, omega or delta" ))
          in
          plain
            (Protocol.series_to_json
               (List.map
                  (fun s -> (s.Figures.label, s.Figures.points))
                  series)));
    }

(* ------------------------------------------------------------------ *)
(* The per-line scheduler step.                                         *)
(* ------------------------------------------------------------------ *)

let trace t fmt =
  Printf.ksprintf
    (fun s -> if t.config.trace then Printf.eprintf "[nanobound-serve] %s\n%!" s)
    fmt

let evaluate p =
  match p.run () with
  | result, None -> Whole (Protocol.ok_reply result)
  | result, Some preflight ->
    Spliced { head = Protocol.ok_reply_head result ~last:"lint"; preflight }

let process t ?memo line =
  let start = Unix.gettimeofday () in
  let kind = ref "invalid" in
  let finish_ok disposition reply =
    let latency = Unix.gettimeofday () -. start in
    (match disposition with
    | `Coalesced -> Service_metrics.record_coalesced t.metrics ~kind:!kind
    | `Hit | `Miss | `Uncached ->
      Service_metrics.record t.metrics ~kind:!kind ~latency);
    if !kind = "lint" then begin
      match disposition with
      | `Hit -> t.lint_hits <- t.lint_hits + 1
      | `Miss -> t.lint_misses <- t.lint_misses + 1
      | `Coalesced | `Uncached -> ()
    end;
    if !kind = "static" then begin
      match disposition with
      | `Hit -> t.static_hits <- t.static_hits + 1
      | `Miss -> t.static_misses <- t.static_misses + 1
      | `Coalesced | `Uncached -> ()
    end;
    trace t "%s %s %.3fms" !kind
      (match disposition with
      | `Hit -> "hit"
      | `Miss -> "miss"
      | `Coalesced -> "coalesced"
      | `Uncached -> "eval")
      (1e3 *. latency);
    reply
  in
  let finish_error code message =
    Service_metrics.record_error t.metrics ~kind:!kind;
    trace t "%s error:%s" !kind code;
    Protocol.error_reply ~code ~message
  in
  if String.length line > t.config.max_request_bytes then
    finish_error "oversized"
      (Printf.sprintf "request exceeds %d bytes" t.config.max_request_bytes)
  else
    match Json.parse line with
    | Error e -> finish_error "parse_error" (Format.asprintf "%a" Json.pp_error e)
    | Ok json -> (
      match Protocol.request_of_json json with
      | Error msg -> finish_error "bad_request" msg
      | Ok env -> (
        kind := Protocol.kind_name env.Protocol.request;
        let deadline =
          let ms =
            match env.Protocol.timeout_ms with
            | Some ms -> Some ms
            | None -> t.config.default_timeout_ms
          in
          Option.map (fun ms -> start +. (float_of_int ms /. 1000.)) ms
        in
        match
          let p = prepare t ~deadline env in
          match p.key with
          | None -> finish_ok `Uncached (reply_text (evaluate p))
          | Some key -> (
            let memo_hit =
              match memo with
              | Some m -> Hashtbl.find_opt m key
              | None -> None
            in
            match memo_hit with
            | Some reply -> finish_ok `Coalesced reply
            | None -> (
              match Cache.find t.responses key with
              | Some cached ->
                let reply = reply_text cached in
                (match memo with
                | Some m -> Hashtbl.replace m key reply
                | None -> ());
                finish_ok `Hit reply
              | None ->
                check_deadline deadline;
                let parts = evaluate p in
                let reply = reply_text parts in
                Cache.add t.responses key parts;
                (match t.journal with
                | Some j -> Journal.append j ~key ~value:reply
                | None -> ());
                (match memo with
                | Some m -> Hashtbl.replace m key reply
                | None -> ());
                finish_ok `Miss reply))
        with
        | reply -> reply
        | exception Reply_error (code, message) -> finish_error code message
        | exception Timed_out ->
          finish_error "timeout" "deadline exceeded before evaluation finished"
        | exception Invalid_argument msg -> finish_error "bad_request" msg
        | exception e ->
          finish_error "internal_error" (Printexc.to_string e)))

let handle_line t line = process t line

let handle_batch t lines =
  let memo = Hashtbl.create 8 in
  List.map (fun line -> process t ~memo line) lines

(* ------------------------------------------------------------------ *)
(* stdio transport.                                                     *)
(* ------------------------------------------------------------------ *)

(* Bounded line read: never buffers more than [limit] bytes, so a
   newline-less flood cannot exhaust memory. *)
let read_line_bounded ic limit =
  let buf = Buffer.create 256 in
  let rec go () =
    match input_char ic with
    | exception End_of_file ->
      if Buffer.length buf = 0 then raise End_of_file else `Line (Buffer.contents buf)
    | '\n' -> `Line (Buffer.contents buf)
    | c ->
      if Buffer.length buf >= limit then begin
        (* Skip the rest of the oversized line. *)
        let rec skip () =
          match input_char ic with
          | exception End_of_file -> ()
          | '\n' -> ()
          | _ -> skip ()
        in
        skip ();
        `Oversized
      end
      else begin
        Buffer.add_char buf c;
        go ()
      end
  in
  go ()

let run_stdio t ic oc =
  let rec loop () =
    if not (shutdown_requested t) then
      match read_line_bounded ic t.config.max_request_bytes with
      | exception End_of_file -> ()
      | `Oversized ->
        output_string oc
          (Protocol.error_reply ~code:"oversized"
             ~message:
               (Printf.sprintf "request exceeds %d bytes"
                  t.config.max_request_bytes));
        output_char oc '\n';
        flush oc;
        loop ()
      | `Line "" -> loop ()
      | `Line line ->
        output_string oc (handle_line t line);
        output_char oc '\n';
        flush oc;
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Socket transports: a nonblocking event loop over a Unix-domain or   *)
(* TCP listener, with a minimal HTTP/1.1 POST front end and optional   *)
(* pre-forked evaluation workers sharded by content address.           *)
(* ------------------------------------------------------------------ *)

(* A reply slot. One slot is queued per connection, in request-arrival
   order, the moment a request is parsed off the wire; it is filled
   whenever its evaluation finishes — possibly out of order relative
   to other slots when a connection's requests shard to different
   workers. Flushing only ever emits the filled prefix of the queue,
   so reply order on the wire always matches request order. *)
type slot = {
  mutable body : string option;  (* reply line, no trailing newline *)
  mutable status : string;  (* HTTP status, used only on HTTP conns *)
}

type proto = P_sniff | P_lines | P_http

type http_phase = H_headers | H_body of int

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;  (* received but not yet parsed *)
  replies : slot Queue.t;  (* unflushed slots, request order *)
  outq : string Queue.t;  (* formatted bytes awaiting write *)
  mutable out_off : int;  (* bytes of [Queue.peek outq] already written *)
  mutable out_bytes : int;  (* total bytes buffered in [outq] *)
  mutable proto : proto;
  mutable http_phase : http_phase;
  mutable discarding : bool;  (* swallowing the rest of an oversized line *)
  mutable closing : bool;  (* no more reads; close once drained *)
  mutable dead : bool;  (* close now, drop any buffered output *)
}

let make_conn fd =
  {
    fd;
    inbuf = Buffer.create 256;
    replies = Queue.create ();
    outq = Queue.create ();
    out_off = 0;
    out_bytes = 0;
    proto = P_sniff;
    http_phase = H_headers;
    discarding = false;
    closing = false;
    dead = false;
  }

(* One pre-forked evaluation worker. The master owns [wfd] (its end of
   the socketpair, nonblocking); the child runs a private [run_stdio]
   loop over the other end, with its own caches and journal shard. *)
type worker = {
  shard : int;
  pid : int;
  wfd : Unix.file_descr;
  rbuf : Buffer.t;  (* partial reply line from the worker *)
  woutq : string Queue.t;  (* request lines awaiting write *)
  mutable wout_off : int;
  inflight : (conn option * slot) Queue.t;
      (* FIFO pairing requests sent with replies expected; [None] marks
         a broadcast (shutdown) whose reply is discarded *)
  mutable alive : bool;
}

let worker_main t shard fd =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let config =
    {
      t.config with
      workers = 0;
      journal = Option.map (fun p -> shard_path p shard) t.config.journal;
    }
  in
  let svc = create ~config () in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  (try run_stdio svc ic oc with _ -> ());
  (try close svc with _ -> ());
  Unix._exit 0

(* Fork the worker pool. Must run before any evaluation touches the
   {!Par} domain pool: domains do not survive [fork], which is why the
   master in sharded mode only routes and never evaluates. *)
let spawn_workers t ~listen_fd =
  let pairs =
    Array.init t.config.workers (fun _ ->
        Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0)
  in
  Array.mapi
    (fun i (mfd, cfd) ->
      match Unix.fork () with
      | 0 ->
        (try Unix.close listen_fd with Unix.Unix_error _ -> ());
        Array.iteri
          (fun j (m, c) ->
            (try Unix.close m with Unix.Unix_error _ -> ());
            if j <> i then try Unix.close c with Unix.Unix_error _ -> ())
          pairs;
        worker_main t i cfd
      | pid ->
        (try Unix.close cfd with Unix.Unix_error _ -> ());
        Unix.set_nonblock mfd;
        {
          shard = i;
          pid;
          wfd = mfd;
          rbuf = Buffer.create 4096;
          woutq = Queue.create ();
          wout_off = 0;
          inflight = Queue.create ();
          alive = true;
        })
    pairs

(* Stable shard choice from a content key: same key, same worker, same
   warm cache — across requests and across daemon restarts. *)
let shard_hash key n =
  let d = Digest.string key in
  let v =
    (Char.code d.[0] lsl 16) lor (Char.code d.[1] lsl 8) lor Char.code d.[2]
  in
  v mod n

let oversized_reply max_bytes =
  Protocol.error_reply ~code:"oversized"
    ~message:(Printf.sprintf "request exceeds %d bytes" max_bytes)

let serve_listening t listen_fd =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Unix.set_nonblock listen_fd;
  let workers =
    if t.config.workers <= 0 then [||] else spawn_workers t ~listen_fd
  in
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 97 in
  let inflight = ref 0 in
  let chunk = Bytes.create 65536 in

  (* ---- output side ------------------------------------------------ *)
  let enqueue_out c s =
    if not c.dead then begin
      if c.out_bytes + String.length s > t.config.max_reply_bytes then begin
        (* The peer stopped reading its replies; dropping it is the
           backpressure of last resort that keeps one slow reader from
           pinning daemon memory (no head-of-line blocking either way:
           the buffer is per-connection). *)
        trace t "dropping slow reader (%d bytes buffered)" c.out_bytes;
        c.dead <- true
      end
      else begin
        Queue.push s c.outq;
        c.out_bytes <- c.out_bytes + String.length s
      end
    end
  in
  let http_response ~status body =
    Printf.sprintf
      "HTTP/1.1 %s\r\nContent-Type: application/json\r\nContent-Length: \
       %d\r\nConnection: %s\r\n\r\n%s"
      status (String.length body)
      (if status = "200 OK" then "keep-alive" else "close")
      body
  in
  let flush_replies c =
    let rec go () =
      match Queue.peek_opt c.replies with
      | Some { body = Some body; status } ->
        ignore (Queue.pop c.replies);
        (match c.proto with
        | P_http -> enqueue_out c (http_response ~status body)
        | P_lines | P_sniff -> enqueue_out c (body ^ "\n"));
        go ()
      | _ -> ()
    in
    go ()
  in
  let pump_out c =
    let rec go () =
      match Queue.peek_opt c.outq with
      | None -> ()
      | Some head -> (
        let b = Bytes.unsafe_of_string head in
        match Net.write_fd c.fd b c.out_off (Bytes.length b - c.out_off) with
        | `Wrote n ->
          c.out_off <- c.out_off + n;
          c.out_bytes <- c.out_bytes - n;
          if c.out_off = Bytes.length b then begin
            ignore (Queue.pop c.outq);
            c.out_off <- 0
          end;
          go ()
        | `Again -> ()
        | `Closed -> c.dead <- true)
    in
    if not c.dead then go ()
  in

  (* ---- request intake --------------------------------------------- *)
  let push_slot c =
    let s = { body = None; status = "200 OK" } in
    Queue.push s c.replies;
    s
  in
  let reject_overloaded c =
    Service_metrics.record_rejected t.metrics;
    let s = push_slot c in
    s.status <- "503 Service Unavailable";
    s.body <- Some Protocol.overloaded_reply
  in
  let shard_key_of_line line =
    match Json.parse line with
    | Error _ -> `Key line
    | Ok json -> (
      match Json.member "kind" json with
      | Some (Json.String "shutdown") -> `Shutdown
      | _ -> (
        match (Json.member "circuit" json, Json.member "blif" json) with
        | Some (Json.String name), _ ->
          (* Named circuits route by strash digest, through the
             identity memo (unknown names by the name itself); BLIF
             payloads route by the MD5 of their text. The two keys
             differ, so a circuit and its BLIF spelling may land on
             different workers. *)
          `Key
            (match identify t (Protocol.Named name) with
            | c -> c.identity.digest
            | exception _ -> name)
        | _, Some (Json.String text) -> `Key (Digest.string text)
        | _ -> `Key line))
  in
  let worker_enqueue w line = if w.alive then Queue.push (line ^ "\n") w.woutq in
  let fail_worker_inflight w =
    let reply =
      Protocol.error_reply ~code:"internal_error"
        ~message:(Printf.sprintf "evaluation worker %d died" w.shard)
    in
    while not (Queue.is_empty w.inflight) do
      match Queue.pop w.inflight with
      | None, _ -> ()
      | Some c, slot ->
        slot.status <- "500 Internal Server Error";
        slot.body <- Some reply;
        decr inflight;
        flush_replies c
    done
  in
  let kill_worker w =
    if w.alive then begin
      w.alive <- false;
      (try Unix.close w.wfd with Unix.Unix_error _ -> ());
      fail_worker_inflight w
    end
  in
  let pump_worker w =
    if w.alive then begin
      let rec wr () =
        match Queue.peek_opt w.woutq with
        | None -> ()
        | Some head -> (
          let b = Bytes.unsafe_of_string head in
          match
            Net.write_fd w.wfd b w.wout_off (Bytes.length b - w.wout_off)
          with
          | `Wrote n ->
            w.wout_off <- w.wout_off + n;
            if w.wout_off = Bytes.length b then begin
              ignore (Queue.pop w.woutq);
              w.wout_off <- 0
            end;
            wr ()
          | `Again -> ()
          | `Closed -> kill_worker w)
      in
      wr ()
    end
  in
  let worker_read w =
    if w.alive then begin
      let continue = ref true in
      while !continue do
        match Net.read_fd w.wfd chunk with
        | `Data n ->
          Buffer.add_subbytes w.rbuf chunk 0 n;
          if n < Bytes.length chunk then continue := false
        | `Again -> continue := false
        | `Eof | `Closed ->
          continue := false;
          kill_worker w
      done;
      (* Split completed reply lines off the front of the buffer. *)
      let data = Buffer.contents w.rbuf in
      Buffer.clear w.rbuf;
      let start = ref 0 in
      (try
         while true do
           let nl = String.index_from data !start '\n' in
           let line = String.sub data !start (nl - !start) in
           start := nl + 1;
           match Queue.pop w.inflight with
           | exception Queue.Empty -> ()
           | None, slot -> slot.body <- Some line
           | Some c, slot ->
             slot.body <- Some line;
             decr inflight;
             flush_replies c
         done
       with Not_found -> ());
      Buffer.add_substring w.rbuf data !start (String.length data - !start)
    end
  in
  let bye_reply = Protocol.ok_reply (Json.String "bye") in
  let shutdown_broadcast () =
    t.stop <- true;
    Array.iter
      (fun w ->
        if w.alive then begin
          worker_enqueue w "{\"kind\":\"shutdown\"}";
          Queue.push (None, { body = None; status = "200 OK" }) w.inflight
        end)
      workers
  in
  let round_batch = ref [] in
  (* inline mode: (slot, line), reversed *)
  let dispatch c slot line =
    if Array.length workers = 0 then
      round_batch := (slot, line) :: !round_batch
    else
      match shard_key_of_line line with
      | `Shutdown ->
        (* The master answers itself — byte-identical to the inline
           reply — and broadcasts so every worker flushes and exits. *)
        slot.body <- Some bye_reply;
        decr inflight;
        shutdown_broadcast ()
      | `Key key ->
        let w = workers.(shard_hash key (Array.length workers)) in
        if not w.alive then begin
          slot.status <- "500 Internal Server Error";
          slot.body <-
            Some
              (Protocol.error_reply ~code:"internal_error"
                 ~message:"evaluation worker unavailable");
          decr inflight
        end
        else begin
          worker_enqueue w line;
          Queue.push (Some c, slot) w.inflight
        end
  in
  let emit_request c line =
    if !inflight >= t.config.max_pending then reject_overloaded c
    else begin
      incr inflight;
      let slot = push_slot c in
      dispatch c slot line
    end
  in

  (* ---- input parsing ---------------------------------------------- *)
  let parse_lines c =
    let data = Buffer.contents c.inbuf in
    Buffer.clear c.inbuf;
    let len = String.length data in
    let i = ref 0 in
    while !i < len do
      match String.index_from_opt data !i '\n' with
      | Some nl when c.discarding ->
        c.discarding <- false;
        i := nl + 1
      | None when c.discarding -> i := len
      | Some nl ->
        let line = String.sub data !i (nl - !i) in
        i := nl + 1;
        if line <> "" then emit_request c line
      | None ->
        let residue = len - !i in
        if residue > t.config.max_request_bytes then begin
          (* The line is already over budget before its newline even
             arrived: answer now, swallow the rest as it streams in,
             and keep the connection — the next line still works. *)
          let s = push_slot c in
          s.status <- "413 Content Too Large";
          s.body <- Some (oversized_reply t.config.max_request_bytes);
          c.discarding <- true
        end
        else Buffer.add_substring c.inbuf data !i residue;
        i := len
    done
  in
  let http_error c ~status ~code ~message =
    let s = push_slot c in
    s.status <- status;
    s.body <- Some (Protocol.error_reply ~code ~message);
    c.closing <- true
  in
  let find_crlfcrlf data i0 =
    let n = String.length data in
    let rec go i =
      if i + 3 >= n then None
      else if
        data.[i] = '\r'
        && data.[i + 1] = '\n'
        && data.[i + 2] = '\r'
        && data.[i + 3] = '\n'
      then Some i
      else go (i + 1)
    in
    go i0
  in
  let content_length headers =
    List.fold_left
      (fun acc line ->
        match acc with
        | Some _ -> acc
        | None -> (
          match String.index_opt line ':' with
          | None -> None
          | Some i ->
            if
              String.lowercase_ascii (String.trim (String.sub line 0 i))
              = "content-length"
            then
              int_of_string_opt
                (String.trim
                   (String.sub line (i + 1) (String.length line - i - 1)))
            else None))
      None headers
  in
  let parse_http c =
    let data = Buffer.contents c.inbuf in
    Buffer.clear c.inbuf;
    let len = String.length data in
    let pos = ref 0 in
    let continue = ref true in
    while !continue do
      if c.closing || c.dead then begin
        pos := len;
        continue := false
      end
      else
        match c.http_phase with
        | H_headers -> (
          match find_crlfcrlf data !pos with
          | None ->
            if len - !pos > 16384 then begin
              http_error c ~status:"431 Request Header Fields Too Large"
                ~code:"bad_request" ~message:"HTTP header block too large";
              pos := len
            end;
            continue := false
          | Some hdr_end -> (
            let head = String.sub data !pos (hdr_end - !pos) in
            pos := hdr_end + 4;
            let lines =
              String.split_on_char '\n' head
              |> List.map (fun l ->
                     let n = String.length l in
                     if n > 0 && l.[n - 1] = '\r' then String.sub l 0 (n - 1)
                     else l)
            in
            match lines with
            | [] ->
              http_error c ~status:"400 Bad Request" ~code:"bad_request"
                ~message:"empty HTTP request"
            | request_line :: headers -> (
              let meth =
                match String.index_opt request_line ' ' with
                | Some i -> String.sub request_line 0 i
                | None -> request_line
              in
              if String.uppercase_ascii meth <> "POST" then
                http_error c ~status:"405 Method Not Allowed"
                  ~code:"bad_request"
                  ~message:"only POST with a JSON request body is supported"
              else
                match content_length headers with
                | None ->
                  http_error c ~status:"411 Length Required"
                    ~code:"bad_request" ~message:"Content-Length is required"
                | Some cl when cl < 0 || cl > t.config.max_request_bytes ->
                  http_error c ~status:"413 Content Too Large"
                    ~code:"oversized"
                    ~message:
                      (Printf.sprintf "request exceeds %d bytes"
                         t.config.max_request_bytes)
                | Some cl -> c.http_phase <- H_body cl)))
        | H_body cl ->
          if len - !pos >= cl then begin
            let body = String.sub data !pos cl in
            pos := !pos + cl;
            c.http_phase <- H_headers;
            emit_request c body
          end
          else continue := false
    done;
    Buffer.add_substring c.inbuf data !pos (len - !pos)
  in
  let parse_conn c =
    (match c.proto with
    | P_sniff ->
      if Buffer.length c.inbuf > 0 then begin
        (* Requests are JSON objects, so a line never starts with an
           uppercase letter; an HTTP method always does. One byte
           decides the connection's protocol for good. *)
        let first = Buffer.nth c.inbuf 0 in
        c.proto <- (if first >= 'A' && first <= 'Z' then P_http else P_lines)
      end
    | P_lines | P_http -> ());
    match c.proto with
    | P_sniff -> ()
    | P_lines -> parse_lines c
    | P_http -> parse_http c
  in
  let conn_read c =
    let continue = ref true in
    let rounds = ref 0 in
    while !continue && !rounds < 8 do
      incr rounds;
      match Net.read_fd c.fd chunk with
      | `Data n ->
        Buffer.add_subbytes c.inbuf chunk 0 n;
        if n < Bytes.length chunk then continue := false
      | `Again -> continue := false
      | `Eof ->
        c.closing <- true;
        continue := false
      | `Closed ->
        c.dead <- true;
        continue := false
    done;
    if not c.dead then parse_conn c
  in
  let accept_new () =
    List.iter
      (fun (fd, _) ->
        let c = make_conn fd in
        Hashtbl.replace conns fd c;
        if Hashtbl.length conns > t.config.max_clients then begin
          (* Over capacity: answer with the structured overload error
             instead of silently stalling the backlog, then close. *)
          Service_metrics.record_rejected t.metrics;
          let s = push_slot c in
          s.status <- "503 Service Unavailable";
          s.body <- Some Protocol.overloaded_reply;
          c.closing <- true
        end)
      (Net.accept_ready listen_fd)
  in

  (* ---- one readiness round ---------------------------------------- *)
  let select_round ~accepting ~timeout =
    let reads = ref [] and writes = ref [] in
    if accepting then reads := [ listen_fd ];
    Hashtbl.iter
      (fun fd c ->
        if (not c.dead) && not c.closing then reads := fd :: !reads;
        if (not c.dead) && not (Queue.is_empty c.outq) then
          writes := fd :: !writes)
      conns;
    Array.iter
      (fun w ->
        if w.alive then begin
          reads := w.wfd :: !reads;
          if not (Queue.is_empty w.woutq) then writes := w.wfd :: !writes
        end)
      workers;
    match Unix.select !reads !writes [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
    | r, w, _ -> (r, w)
  in
  let one_round ~accepting ~timeout =
    let ready_r, _ready_w = select_round ~accepting ~timeout in
    if accepting && List.memq listen_fd ready_r then accept_new ();
    round_batch := [];
    Hashtbl.iter (fun fd c -> if List.memq fd ready_r then conn_read c) conns;
    (* Inline evaluation: one batch per readiness round, coalescing
       duplicates, exactly like the single-process transports. *)
    (match List.rev !round_batch with
    | [] -> ()
    | batch ->
      let replies = handle_batch t (List.map snd batch) in
      List.iter2 (fun (slot, _) reply -> slot.body <- Some reply) batch replies;
      inflight := !inflight - List.length batch);
    round_batch := [];
    Array.iter
      (fun w ->
        if w.alive && List.memq w.wfd ready_r then worker_read w;
        if w.alive then pump_worker w)
      workers;
    let to_close = ref [] in
    Hashtbl.iter
      (fun fd c ->
        if not c.dead then begin
          flush_replies c;
          pump_out c
        end;
        if
          c.dead
          || (c.closing
             && Queue.is_empty c.replies
             && Queue.is_empty c.outq)
        then to_close := (fd, c) :: !to_close)
      conns;
    List.iter
      (fun (fd, c) ->
        Hashtbl.remove conns fd;
        c.dead <- true;
        try Unix.close c.fd with Unix.Unix_error _ -> ())
      !to_close
  in
  let rec main () =
    if not (shutdown_requested t) then begin
      one_round ~accepting:true ~timeout:(-1.);
      main ()
    end
  in
  main ();
  (* Drain: flush filled replies and the shutdown broadcast, bounded so
     a wedged peer cannot hold the daemon open forever. *)
  let pending_work () =
    let p = ref false in
    Hashtbl.iter
      (fun _ c ->
        if
          (not c.dead)
          && ((not (Queue.is_empty c.outq)) || not (Queue.is_empty c.replies))
        then p := true)
      conns;
    Array.iter
      (fun w ->
        if
          w.alive
          && ((not (Queue.is_empty w.woutq)) || not (Queue.is_empty w.inflight))
        then p := true)
      workers;
    !p
  in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while pending_work () && Unix.gettimeofday () < deadline do
    one_round ~accepting:false ~timeout:0.05
  done;
  Hashtbl.iter
    (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
    conns;
  Array.iter
    (fun w ->
      if w.alive then begin
        w.alive <- false;
        try Unix.close w.wfd with Unix.Unix_error _ -> ()
      end)
    workers;
  Array.iter
    (fun w ->
      let rec reap tries =
        match
          Net.retry_intr (fun () -> Unix.waitpid [ Unix.WNOHANG ] w.pid)
        with
        | 0, _ ->
          if tries = 0 then begin
            (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
            ignore (Net.retry_intr (fun () -> Unix.waitpid [] w.pid))
          end
          else begin
            Net.sleep 0.05;
            reap (tries - 1)
          end
        | _ -> ()
        | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
      in
      reap 40)
    workers

let serve_unix t ~socket_path =
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  Unix.bind listen_fd (Unix.ADDR_UNIX socket_path);
  Unix.listen listen_fd 256;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      try Unix.unlink socket_path with Unix.Unix_error _ -> ())
    (fun () -> serve_listening t listen_fd)

let serve_tcp t ~host ~port =
  let addr = Net.resolve_tcp host port in
  let listen_fd =
    Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0
  in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.bind listen_fd addr;
  Unix.listen listen_fd 256;
  Fun.protect
    ~finally:(fun () ->
      try Unix.close listen_fd with Unix.Unix_error _ -> ())
    (fun () -> serve_listening t listen_fd)
