module Json = Nano_util.Json
module Metrics = Nano_bounds.Metrics
module Profile = Nano_bounds.Profile
module Benchmark_eval = Nano_bounds.Benchmark_eval

type circuit = Named of string | Blif of string
type tech_spec = Tech_named of string | Tech_inline of Json.t

type request =
  | Ping
  | Stats
  | Shutdown
  | Bounds of Metrics.scenario
  | Profile of { circuit : circuit; no_map : bool }
  | Analyze of {
      circuit : circuit;
      delta : float;
      leakage_share0 : float;
      epsilons : float list;
      no_map : bool;
      measure : bool;
      vectors : int;
      tech : tech_spec option;
    }
  | Sweep of { figure : string }
  | Lint of {
      circuit : circuit;
      max_fanin : int;
      epsilon : float;
      delta : float;
    }
  | Static of {
      circuit : circuit;
      epsilon : float;
      input_probability : float;
      cone_budget : int;
      tech : tech_spec option;
    }

type envelope = { request : request; timeout_ms : int option }

let kind_name = function
  | Ping -> "ping"
  | Stats -> "stats"
  | Shutdown -> "shutdown"
  | Bounds _ -> "bounds"
  | Profile _ -> "profile"
  | Analyze _ -> "analyze"
  | Sweep _ -> "sweep"
  | Lint _ -> "lint"
  | Static _ -> "static"

(* ------------------------------------------------------------------ *)
(* Encoding.                                                            *)
(* ------------------------------------------------------------------ *)

let circuit_fields = function
  | Named name -> [ ("circuit", Json.String name) ]
  | Blif text -> [ ("blif", Json.String text) ]

let request_to_json { request; timeout_ms } =
  let base =
    match request with
    | Ping -> [ ("kind", Json.String "ping") ]
    | Stats -> [ ("kind", Json.String "stats") ]
    | Shutdown -> [ ("kind", Json.String "shutdown") ]
    | Bounds s ->
      [
        ("kind", Json.String "bounds");
        ("epsilon", Json.Float s.Metrics.epsilon);
        ("delta", Json.Float s.Metrics.delta);
        ("fanin", Json.Int s.Metrics.fanin);
        ("sensitivity", Json.Int s.Metrics.sensitivity);
        ("size", Json.Int s.Metrics.error_free_size);
        ("inputs", Json.Int s.Metrics.inputs);
        ("sw0", Json.Float s.Metrics.sw0);
        ("leakage_share0", Json.Float s.Metrics.leakage_share0);
      ]
    | Profile { circuit; no_map } ->
      (("kind", Json.String "profile") :: circuit_fields circuit)
      @ [ ("no_map", Json.Bool no_map) ]
    | Analyze
        { circuit; delta; leakage_share0; epsilons; no_map; measure; vectors;
          tech }
      ->
      (("kind", Json.String "analyze") :: circuit_fields circuit)
      @ [
          ("delta", Json.Float delta);
          ("leakage_share0", Json.Float leakage_share0);
          ("epsilons", Json.List (List.map (fun e -> Json.Float e) epsilons));
          ("no_map", Json.Bool no_map);
          ("measure", Json.Bool measure);
          ("vectors", Json.Int vectors);
        ]
      @ (match tech with
        | None -> []
        | Some (Tech_named name) -> [ ("tech", Json.String name) ]
        | Some (Tech_inline pack) -> [ ("tech", pack) ])
    | Sweep { figure } ->
      [ ("kind", Json.String "sweep"); ("figure", Json.String figure) ]
    | Lint { circuit; max_fanin; epsilon; delta } ->
      (("kind", Json.String "lint") :: circuit_fields circuit)
      @ [
          ("max_fanin", Json.Int max_fanin);
          ("epsilon", Json.Float epsilon);
          ("delta", Json.Float delta);
        ]
    | Static { circuit; epsilon; input_probability; cone_budget; tech } ->
      (("kind", Json.String "static") :: circuit_fields circuit)
      @ [
          ("epsilon", Json.Float epsilon);
          ("input_probability", Json.Float input_probability);
          ("cone_budget", Json.Int cone_budget);
        ]
      @ (match tech with
        | None -> []
        | Some (Tech_named name) -> [ ("tech", Json.String name) ]
        | Some (Tech_inline pack) -> [ ("tech", pack) ])
  in
  let timeout =
    match timeout_ms with
    | Some ms -> [ ("timeout_ms", Json.Int ms) ]
    | None -> []
  in
  Json.Obj (base @ timeout)

(* ------------------------------------------------------------------ *)
(* Decoding.                                                            *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let field_opt conv obj name =
  match Json.member name obj with
  | None | Some Json.Null -> Ok None
  | Some v -> (
    match conv v with
    | Some x -> Ok (Some x)
    | None -> Error (Printf.sprintf "field %S has the wrong type" name))

let field_default conv obj name default =
  let* v = field_opt conv obj name in
  Ok (Option.value v ~default)

let field_required conv obj name =
  let* v = field_opt conv obj name in
  match v with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "missing field %S" name)

let float_list v =
  match Json.to_list v with
  | None -> None
  | Some items ->
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | x :: rest -> (
        match Json.to_float x with
        | Some f -> go (f :: acc) rest
        | None -> None)
    in
    go [] items

(* Shared by analyze and static: absent for older clients, a name for
   built-ins, an object for inline packs. *)
let tech_of_json obj =
  match Json.member "tech" obj with
  | None | Some Json.Null -> Ok None
  | Some (Json.String name) -> Ok (Some (Tech_named name))
  | Some (Json.Obj _ as pack) -> Ok (Some (Tech_inline pack))
  | Some _ ->
    Error "field \"tech\" must be a pack name or an inline pack object"

let in_domain name domain valid values =
  if List.for_all valid values then Ok ()
  else Error (Printf.sprintf "field %S must lie in %s" name domain)

let circuit_of_json obj =
  match (Json.member "circuit" obj, Json.member "blif" obj) with
  | Some (Json.String name), None -> Ok (Named name)
  | None, Some (Json.String text) -> Ok (Blif text)
  | Some _, Some _ -> Error "give either \"circuit\" or \"blif\", not both"
  | Some _, None -> Error "field \"circuit\" has the wrong type"
  | None, Some _ -> Error "field \"blif\" has the wrong type"
  | None, None -> Error "missing field \"circuit\" (or \"blif\")"

let request_of_json obj =
  match obj with
  | Json.Obj _ ->
    let* kind = field_required Json.to_string_opt obj "kind" in
    let* request =
      match kind with
      | "ping" -> Ok Ping
      | "stats" -> Ok Stats
      | "shutdown" -> Ok Shutdown
      | "bounds" ->
        let* epsilon = field_default Json.to_float obj "epsilon" 0.01 in
        let* delta = field_default Json.to_float obj "delta" 0.01 in
        let* fanin = field_default Json.to_int obj "fanin" 2 in
        let* sensitivity = field_default Json.to_int obj "sensitivity" 10 in
        let* size = field_default Json.to_int obj "size" 21 in
        let* inputs = field_default Json.to_int obj "inputs" 10 in
        let* sw0 = field_default Json.to_float obj "sw0" 0.5 in
        let* leakage_share0 =
          field_default Json.to_float obj "leakage_share0" 0.5
        in
        Ok
          (Bounds
             {
               Metrics.epsilon;
               delta;
               fanin;
               sensitivity;
               error_free_size = size;
               inputs;
               sw0;
               leakage_share0;
             })
      | "profile" ->
        let* circuit = circuit_of_json obj in
        let* no_map = field_default Json.to_bool obj "no_map" false in
        Ok (Profile { circuit; no_map })
      | "analyze" ->
        (* The theorems' domain is checked here, before any profile or
           Monte-Carlo work, so the reply names the offending field. *)
        let* circuit = circuit_of_json obj in
        let* delta = field_default Json.to_float obj "delta" 0.01 in
        let* () = in_domain "delta" "[0, 1/2)" Metrics.delta_valid [ delta ] in
        let* leakage_share0 =
          field_default Json.to_float obj "leakage_share0" 0.5
        in
        let* () =
          in_domain "leakage_share0" "[0, 1)" Metrics.leakage_share_valid
            [ leakage_share0 ]
        in
        let* epsilons =
          field_default float_list obj "epsilons"
            Benchmark_eval.paper_epsilons
        in
        let* () =
          in_domain "epsilons" "(0, 1/2]" Metrics.epsilon_valid epsilons
        in
        let* no_map = field_default Json.to_bool obj "no_map" false in
        (* Backward compatible: pre-measurement clients simply omit
           these and get the old analytic-only analysis. *)
        let* measure = field_default Json.to_bool obj "measure" false in
        let* vectors = field_default Json.to_int obj "vectors" 4096 in
        let* () =
          if vectors >= 1 then Ok ()
          else Error "field \"vectors\" must be a positive integer"
        in
        (* Absent for pre-tech clients, whose replies (and cache keys)
           stay byte-identical to the previous protocol revision. *)
        let* tech = tech_of_json obj in
        Ok
          (Analyze
             { circuit; delta; leakage_share0; epsilons; no_map; measure;
               vectors; tech })
      | "sweep" ->
        let* figure = field_required Json.to_string_opt obj "figure" in
        Ok (Sweep { figure })
      | "lint" ->
        let* circuit = circuit_of_json obj in
        let* max_fanin = field_default Json.to_int obj "max_fanin" 3 in
        let* epsilon = field_default Json.to_float obj "epsilon" 0.01 in
        let* delta = field_default Json.to_float obj "delta" 0.01 in
        Ok (Lint { circuit; max_fanin; epsilon; delta })
      | "static" ->
        let* circuit = circuit_of_json obj in
        let* epsilon = field_default Json.to_float obj "epsilon" 0.01 in
        let* input_probability =
          field_default Json.to_float obj "input_probability" 0.5
        in
        let* cone_budget =
          field_default Json.to_int obj "cone_budget"
            Nano_static.Static.default_cone_budget
        in
        let* tech = tech_of_json obj in
        Ok (Static { circuit; epsilon; input_probability; cone_budget; tech })
      | other -> Error (Printf.sprintf "unknown request kind %S" other)
    in
    let* timeout_ms = field_opt Json.to_int obj "timeout_ms" in
    Ok { request; timeout_ms }
  | _ -> Error "request must be a JSON object"

(* ------------------------------------------------------------------ *)
(* Result encoders.                                                     *)
(* ------------------------------------------------------------------ *)

(* Bounds may be +∞ (Theorem 2's size bound at ε = 1/2) and encode as
   [null] then, like the infeasible ratios. *)
let bound = Json.float_or_null
let opt_float = function Some v -> bound v | None -> Json.Null

let bounds_to_json (b : Metrics.bounds) =
  Json.Obj
    [
      ("size_ratio", bound b.Metrics.size_ratio);
      ("activity_ratio", bound b.Metrics.activity_ratio);
      ("idle_ratio", bound b.Metrics.idle_ratio);
      ("switching_energy_ratio", bound b.Metrics.switching_energy_ratio);
      ("energy_ratio", bound b.Metrics.energy_ratio);
      ("leakage_ratio_change", bound b.Metrics.leakage_ratio_change);
      ("delay_ratio", opt_float b.Metrics.delay_ratio);
      ("energy_delay_ratio", opt_float b.Metrics.energy_delay_ratio);
      ("average_power_ratio", opt_float b.Metrics.average_power_ratio);
    ]

let profile_to_json (p : Profile.t) =
  Json.Obj
    [
      ("name", Json.String p.Profile.name);
      ("inputs", Json.Int p.Profile.inputs);
      ("outputs", Json.Int p.Profile.outputs);
      ("size", Json.Int p.Profile.size);
      ("depth", Json.Int p.Profile.depth);
      ("avg_fanin", Json.Float p.Profile.avg_fanin);
      ("max_fanin", Json.Int p.Profile.max_fanin);
      ("sw0", Json.Float p.Profile.sw0);
      ("sensitivity", Json.Int p.Profile.sensitivity);
    ]

let row_to_json (r : Benchmark_eval.row) =
  Json.Obj
    [
      ("benchmark", Json.String r.Benchmark_eval.benchmark);
      ("epsilon", Json.Float r.Benchmark_eval.epsilon);
      ("delta", Json.Float r.Benchmark_eval.delta);
      ("energy_ratio", bound r.Benchmark_eval.energy_ratio);
      ("delay_ratio", opt_float r.Benchmark_eval.delay_ratio);
      ("average_power_ratio", opt_float r.Benchmark_eval.average_power_ratio);
      ("energy_delay_ratio", opt_float r.Benchmark_eval.energy_delay_ratio);
      ("size_ratio", bound r.Benchmark_eval.size_ratio);
    ]

let measured_row_to_json (r : Benchmark_eval.measured_row) =
  (* The analytic row's fields flattened together with the measured
     figures, so a measured row is a strict superset of [row_to_json]
     and existing consumers can read it unchanged. *)
  match row_to_json r.Benchmark_eval.row with
  | Json.Obj fields ->
    Json.Obj
      (fields
      @ [
          ("measured_delta", Json.Float r.Benchmark_eval.measured_delta);
          ("measured_activity", Json.Float r.Benchmark_eval.measured_activity);
          ("measured_vectors", Json.Int r.Benchmark_eval.vectors);
        ])
  | other -> other

let series_to_json series =
  Json.List
    (List.map
       (fun (label, points) ->
         Json.Obj
           [
             ("label", Json.String label);
             ( "points",
               Json.List
                 (List.map
                    (fun (x, y) ->
                      Json.List [ Json.Float x; Json.Float y ])
                    points) );
           ])
       series)

(* ------------------------------------------------------------------ *)
(* Reply envelopes.                                                     *)
(* ------------------------------------------------------------------ *)

let ok_reply result =
  Json.to_string (Json.Obj [ ("ok", Json.Bool true); ("result", result) ])

let error_reply ~code ~message =
  Json.to_string
    (Json.Obj
       [
         ("ok", Json.Bool false);
         ( "error",
           Json.Obj
             [ ("code", Json.String code); ("message", Json.String message) ]
         );
       ])

(* Admission control rejects before any evaluation runs, so the reply
   is a precomputed constant — shedding load must not itself allocate
   encoder work per rejected request. *)
let overloaded_reply =
  error_reply ~code:"overloaded"
    ~message:"server at capacity: the bounded request queue is full, retry"
