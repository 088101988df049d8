(* The request pipeline, replayed inside the benchmark process.

   [handle] answers one service request line the way the daemon's
   handler does (Service.prepare and Service.process), calling each
   layer's public function in the same order: decode, resolve (suite
   build or BLIF parse), strash digest, cache lookup, then on a miss the
   profile (with the handler's profile-cache reuse), synthesis, the
   Monte-Carlo grid, the tech report, the lint preflight, and encode.
   [cli] does the same for the `static` and `lint` CLI verbs. Every
   layer call sits in a {!Trace.span}; replies come out byte-identical
   to the program's, which is what the explore check compares. *)

module Json = Nano_util.Json
module Protocol = Nano_service.Protocol
module Cache = Nano_service.Cache
module Journal = Nano_service.Journal
module Netlist = Nano_netlist.Netlist
module Profile = Nano_bounds.Profile
module Benchmark_eval = Nano_bounds.Benchmark_eval
module Static = Nano_static.Static
module Lint = Nano_lint.Lint

let span = Trace.span

(* Work counted where it happens, for the per-layer ratios. *)
type counters = {
  mutable lane_words : float;  (** ε lanes x 64-vector words x gates *)
  mutable grid_minor_words : float;
  mutable static_nodes : int;
  mutable static_exact : int;
  mutable static_bdd : int;
  mutable reply_bytes : int;
  mutable replies : int;
}

type t = {
  jobs : int;
  responses : string Cache.t;
  profiles : Profile.t Cache.t;
  journal : Journal.t option;
  counters : counters;
}

let create ~jobs ?journal () =
  let responses = Cache.create ~capacity:256 in
  let journal =
    Option.map
      (fun path ->
        span "journal.replay" (fun () ->
            Journal.load ~path (fun ~key ~value -> Cache.add responses key value)))
      journal
  in
  {
    jobs;
    responses;
    profiles = Cache.create ~capacity:256;
    journal;
    counters =
      {
        lane_words = 0.;
        grid_minor_words = 0.;
        static_nodes = 0;
        static_exact = 0;
        static_bdd = 0;
        reply_bytes = 0;
        replies = 0;
      };
  }

let close t = Option.iter Journal.close t.journal

exception Reply_error of string * string

let fr = Json.float_repr

let resolve = function
  | Protocol.Named name -> (
    match Nano_circuits.Suite.find name with
    | Some entry -> (name, span "resolve" entry.Nano_circuits.Suite.build)
    | None -> raise (Reply_error ("unknown_circuit", name)))
  | Protocol.Blif text -> (
    match span "blif" (fun () -> Nano_blif.Blif.parse_string text) with
    | Ok n -> (Netlist.name n, n)
    | Error e ->
      raise
        (Reply_error
           ("blif_parse_error", Format.asprintf "%a" Nano_blif.Blif.pp_error e)))

let digest n = span "strash" (fun () -> Nano_synth.Strash.digest n)

let resolve_tech = function
  | Protocol.Tech_named name -> (
    match Nano_tech.Builtin.find name with
    | Some p -> p
    | None -> raise (Reply_error ("unknown_tech", name)))
  | Protocol.Tech_inline json -> (
    match Nano_tech.Loader.of_json json with
    | Ok p -> p
    | Error _ -> raise (Reply_error ("invalid_tech", "invalid pack")))

let synth n = span "synth" (fun () -> Nano_synth.Script.rugged_lite ~max_fanin:3 n)

let profile_for t ~digest ~name ~no_map netlist =
  let core_key = Printf.sprintf "profile-core|%s|%b" digest no_map in
  let p =
    match Cache.find t.profiles core_key with
    | Some p -> p
    | None ->
      let mapped = if no_map then netlist else synth netlist in
      let p = span "profile" (fun () -> Profile.of_netlist ~jobs:t.jobs mapped) in
      Cache.add t.profiles core_key p;
      p
  in
  { p with Profile.name = name }

let attach_preflight ~digest netlist json =
  let report = span "lint" (fun () -> Lint.run_netlist ~digest netlist) in
  match (Lint.preflight_json report, json) with
  | Some pj, Json.Obj fields -> Json.Obj (fields @ [ ("lint", pj) ])
  | _ -> json

let measured_grid t ~delta ~leakage_share0 ~epsilons ~vectors ~profile mapped =
  let before = Gc.minor_words () in
  let rows =
    span "noisy_sim" (fun () ->
        Benchmark_eval.measured_grid ~deltas:[ delta ] ~leakage_share0 ~epsilons
          ~vectors ~jobs:t.jobs ~profile mapped)
  in
  let c = t.counters in
  c.grid_minor_words <- c.grid_minor_words +. (Gc.minor_words () -. before);
  c.lane_words <-
    c.lane_words
    +. float_of_int
         (List.length epsilons * ((vectors + 63) / 64) * Netlist.size mapped);
  rows

let count_static t (a : Static.t) =
  let c = t.counters in
  c.static_nodes <- c.static_nodes + Array.length a.Static.nodes;
  c.static_exact <- c.static_exact + a.Static.exact_nodes;
  c.static_bdd <- c.static_bdd + a.Static.bdd_nodes

type prepared = { key : string option; run : unit -> Json.t }

let prepare t (request : Protocol.request) =
  match request with
  | Protocol.Bounds s ->
    let module M = Nano_bounds.Metrics in
    if not (M.scenario_valid s) then
      raise (Reply_error ("invalid_scenario", "outside the theorems' domain"));
    {
      key =
        Some
          (Printf.sprintf "bounds|%s|%s|%d|%d|%d|%d|%s|%s" (fr s.M.epsilon)
             (fr s.M.delta) s.M.fanin s.M.sensitivity s.M.error_free_size
             s.M.inputs (fr s.M.sw0) (fr s.M.leakage_share0));
      run =
        (fun () -> span "bounds" (fun () -> Protocol.bounds_to_json (M.evaluate s)));
    }
  | Protocol.Analyze
      { circuit; delta; leakage_share0; epsilons; no_map; measure; vectors; tech }
    ->
    let name, netlist = resolve circuit in
    let digest = digest netlist in
    let tech = Option.map resolve_tech tech in
    let key =
      Printf.sprintf "analyze|%s|%s|%b|%s|%s|%s|%b|%d%s" digest name no_map
        (fr delta) (fr leakage_share0)
        (String.concat "," (List.map fr epsilons))
        measure vectors
        (match tech with
        | None -> ""
        | Some pack -> "|tech:" ^ Nano_tech.Pack.digest pack)
    in
    let run () =
      let profile = profile_for t ~digest ~name ~no_map netlist in
      let mapped () = if no_map then netlist else synth netlist in
      let tech_fields mapped_net =
        match tech with
        | None -> []
        | Some pack ->
          let report =
            span "tech" (fun () ->
                Nano_tech.Report.analyze ~delta ~epsilons ~pack ~profile mapped_net)
          in
          [ ("tech", Nano_tech.Report.to_json report) ]
      in
      if measure then begin
        let mapped = mapped () in
        let rows =
          measured_grid t ~delta ~leakage_share0 ~epsilons ~vectors ~profile mapped
        in
        let tech = tech_fields mapped in
        attach_preflight ~digest netlist
          (Json.Obj
             ([
                ("profile", Protocol.profile_to_json profile);
                ("rows", Json.List (List.map Protocol.measured_row_to_json rows));
              ]
             @ tech))
      end
      else begin
        let rows =
          span "bounds" (fun () ->
              Nano_util.Par.map_list ~jobs:t.jobs
                (fun epsilon ->
                  Benchmark_eval.evaluate_profile ~delta ~leakage_share0 profile
                    ~epsilon)
                epsilons)
        in
        let tech = match tech with None -> [] | Some _ -> tech_fields (mapped ()) in
        attach_preflight ~digest netlist
          (Json.Obj
             ([
                ("profile", Protocol.profile_to_json profile);
                ("rows", Json.List (List.map Protocol.row_to_json rows));
              ]
             @ tech))
      end
    in
    { key = Some key; run }
  | Protocol.Lint { circuit; max_fanin; epsilon; delta } -> (
    let options = { Lint.max_fanin; epsilon; delta } in
    let params = Printf.sprintf "%d|%s|%s" max_fanin (fr epsilon) (fr delta) in
    match circuit with
    | Protocol.Named _ ->
      let name, netlist = resolve circuit in
      let digest = digest netlist in
      {
        key = Some (Printf.sprintf "lint|net:%s|%s|%s" digest name params);
        run =
          (fun () ->
            Lint.report_to_json
              (span "lint" (fun () -> Lint.run_netlist ~options ~digest netlist)));
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
            Lint.report_to_json
              (span "lint" (fun () -> Lint.run_blif_string ~options text)));
      })
  | Protocol.Static { circuit; epsilon; input_probability; cone_budget; tech } ->
    let name, netlist = resolve circuit in
    let digest = digest netlist in
    let epsilon =
      match Option.map resolve_tech tech with
      | None -> epsilon
      | Some pack -> Float.max epsilon pack.Nano_tech.Pack.intrinsic_epsilon
    in
    {
      key =
        Some
          (Printf.sprintf "static|%s|%s|%s|%s|%d" digest name (fr epsilon)
             (fr input_probability) cone_budget);
      run =
        (fun () ->
          let a =
            span "static" (fun () ->
                Static.analyze ~input_probability ~cone_budget ~epsilon netlist)
          in
          count_static t a;
          Static.to_json a netlist);
    }
  | Protocol.Ping | Protocol.Stats | Protocol.Shutdown | Protocol.Profile _
  | Protocol.Sweep _ ->
    raise (Reply_error ("bad_request", "not replayed by the benchmark"))

let encode t json =
  let reply = span "encode" (fun () -> Protocol.ok_reply json) in
  t.counters.reply_bytes <- t.counters.reply_bytes + String.length reply;
  t.counters.replies <- t.counters.replies + 1;
  reply

(* One service request line to one reply line. *)
let handle t line =
  span "request" (fun () ->
      match
        span "decode" (fun () ->
            match Json.parse line with
            | Error _ -> Error "parse_error"
            | Ok json -> (
              match Protocol.request_of_json json with
              | Ok env -> Ok env.Protocol.request
              | Error _ -> Error "bad_request"))
      with
      | Error code -> Protocol.error_reply ~code ~message:"rejected by replay"
      | Ok request -> (
        match
          let p = prepare t request in
          match p.key with
          | None -> encode t (p.run ())
          | Some key -> (
            match span "cache" (fun () -> Cache.find t.responses key) with
            | Some reply -> reply
            | None ->
              let reply = encode t (p.run ()) in
              Cache.add t.responses key reply;
              Option.iter
                (fun j -> span "journal.append" (fun () -> Journal.append j ~key ~value:reply))
                t.journal;
              reply)
        with
        | reply -> reply
        | exception Reply_error (code, message) -> Protocol.error_reply ~code ~message
        | exception Invalid_argument message ->
          Protocol.error_reply ~code:"bad_request" ~message))

(* One `nanobound static|lint FILE --format json` invocation, in
   process: the same library calls the verb makes, returning the line
   it prints. *)
let cli t (job : Gen.job) ~file =
  span "request" (fun () ->
      match job.Gen.verb with
      | Gen.Static -> (
        match span "blif" (fun () -> Nano_blif.Blif.parse_file file) with
        | Error e -> Format.asprintf "%a" Nano_blif.Blif.pp_error e
        | Ok netlist ->
          let a =
            span "static" (fun () ->
                Static.analyze ~input_probability:job.Gen.input_probability
                  ~cone_budget:job.Gen.cone_budget ~epsilon:job.Gen.epsilon netlist)
          in
          count_static t a;
          let out =
            span "encode" (fun () -> Json.to_string (Static.to_json ~top:16 a netlist))
          in
          ignore (Static.diagnostics a netlist);
          out)
      | Gen.Lint -> (
        let options = { Lint.default_options with Lint.epsilon = job.Gen.epsilon } in
        match span "lint" (fun () -> Lint.run_blif_file ~options file) with
        | Error msg -> msg
        | Ok report -> span "encode" (fun () -> Json.to_string (Lint.report_to_json report))))
