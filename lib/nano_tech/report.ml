module Gate = Nano_netlist.Gate
module Netlist = Nano_netlist.Netlist
module Timing = Nano_netlist.Timing
module Activity = Nano_sim.Activity
module Profile = Nano_bounds.Profile
module Benchmark_eval = Nano_bounds.Benchmark_eval
module Leakage = Nano_bounds.Leakage
module Json = Nano_util.Json
module Diagnostic = Nano_lint.Diagnostic

type gate_row = {
  kind : Gate.kind;
  count : int;
  switching_j : float;
  leakage_w : float;
  area_m2 : float;
}

type bound_row = {
  epsilon : float;
  effective_epsilon : float;
  energy_ratio : float;
  bound_energy_j : float;
  leakage_ratio_change : float;
}

type t = {
  pack_name : string;
  pack_digest : string;
  gates : gate_row list;
  switching_j : float;
  leakage_w : float;
  leakage_j : float;
  total_j : float;
  area_m2 : float;
  critical_path_s : float;
  critical_output : string;
  leakage_share : float;
  bounds : bound_row list;
  diagnostics : Diagnostic.t list;
}

let clamp lo hi v = Float.max lo (Float.min hi v)

let analyze ?(delta = Benchmark_eval.paper_delta)
    ?(epsilons = Benchmark_eval.paper_epsilons) ?node_activity ~(pack : Pack.t)
    ~(profile : Profile.t) net =
  let node_activity =
    match node_activity with
    | Some sw ->
      (* Caller-supplied per-node activities — e.g. the static
         analyzer's microsecond estimate instead of 4096 simulated
         vectors. Must cover every node id. *)
      if Array.length sw <> Netlist.node_count net then
        invalid_arg "Report.analyze: node_activity length mismatch";
      sw
    | None ->
      (* Pinned to [Profile.default_activity] so every surface computes
         the same weights regardless of other request parameters; the
         profile's own counts give these floats without this run. *)
      (Activity.monte_carlo ~seed:0x5eed ~vectors:4096 net)
        .Activity.node_activity
  in
  let acc = Hashtbl.create 11 in
  let diagnostics = ref [] in
  let switching = ref 0. and leakage = ref 0. and area = ref 0. in
  Netlist.iter net (fun id info ->
      (* Buffers are free alongside sources, matching [Netlist.size] and
         the normalized energy model; a pack's "buf" entry is legal but
         unused. *)
      if Gate.is_logic info.Netlist.kind then begin
        let kind = info.Netlist.kind in
        let arity = Array.length info.Netlist.fanins in
        match Pack.scaled pack kind ~arity with
        | Some e ->
          let sw = node_activity.(id) in
          let sj = e.Pack.energy_j *. sw in
          switching := !switching +. sj;
          leakage := !leakage +. e.Pack.leakage_w;
          area := !area +. e.Pack.area_m2;
          let c, s, l, a =
            Option.value (Hashtbl.find_opt acc kind) ~default:(0, 0., 0., 0.)
          in
          Hashtbl.replace acc kind
            (c + 1, s +. sj, l +. e.Pack.leakage_w, a +. e.Pack.area_m2)
        | None ->
          let where =
            match info.Netlist.name with
            | Some n -> n
            | None -> Printf.sprintf "node %d" id
          in
          diagnostics :=
            Diagnostic.make Diagnostic.Error ~pass:"tech"
              ~code:"unmapped-gate-kind" (Diagnostic.Node id)
              (Printf.sprintf
                 "%s: gate kind %s has no entry in technology pack %s" where
                 (Gate.name kind) pack.Pack.name)
            :: !diagnostics
      end);
  let gates =
    List.filter_map
      (fun kind ->
        match Hashtbl.find_opt acc kind with
        | Some (count, switching_j, leakage_w, area_m2) ->
          Some { kind; count; switching_j; leakage_w; area_m2 }
        | None -> None)
      Pack.kind_order
  in
  let delay kind arity =
    if not (Gate.is_logic kind) then 0.
    else
      match Pack.scaled pack kind ~arity with
      | Some e -> e.Pack.delay_s
      | None -> 0.
  in
  let timing = Timing.analyze ~delay net in
  let critical_path_s = timing.Timing.max_arrival in
  let leakage_j = !leakage *. critical_path_s in
  let total_j = !switching +. leakage_j in
  let leakage_share = if total_j > 0. then leakage_j /. total_j else 0. in
  let sw0 = clamp 1e-4 (1. -. 1e-4) profile.Profile.sw0 in
  let share0 = clamp 0. (1. -. 1e-9) leakage_share in
  let bounds =
    List.map
      (fun epsilon ->
        let effective_epsilon = Pack.effective_epsilon pack epsilon in
        (* A pack whose constants overflow a double can leave the share
           undefined (∞/∞); Corollary 2 then has no λ0 to read. *)
        let energy_ratio =
          if Float.is_nan share0 then Float.nan
          else
            (Benchmark_eval.evaluate_profile ~delta ~leakage_share0:share0
               profile ~epsilon:effective_epsilon)
              .Benchmark_eval.energy_ratio
        in
        {
          epsilon;
          effective_epsilon;
          energy_ratio;
          bound_energy_j = energy_ratio *. total_j;
          leakage_ratio_change =
            Leakage.ratio_change ~epsilon:effective_epsilon ~sw0;
        })
      epsilons
  in
  {
    pack_name = pack.Pack.name;
    pack_digest = Pack.digest pack;
    gates;
    switching_j = !switching;
    leakage_w = !leakage;
    leakage_j;
    total_j;
    area_m2 = !area;
    critical_path_s;
    critical_output = timing.Timing.critical_output;
    leakage_share;
    bounds;
    diagnostics = List.sort_uniq Diagnostic.compare !diagnostics;
  }

let gate_row_to_json r =
  Json.Obj
    [
      ("kind", Json.String (Gate.name r.kind));
      ("count", Json.Int r.count);
      ("switching_j", Json.float_or_null r.switching_j);
      ("leakage_w", Json.float_or_null r.leakage_w);
      ("area_m2", Json.float_or_null r.area_m2);
    ]

let bound_row_to_json r =
  Json.Obj
    [
      ("epsilon", Json.Float r.epsilon);
      ("effective_epsilon", Json.Float r.effective_epsilon);
      ("energy_ratio", Json.float_or_null r.energy_ratio);
      ("bound_energy_j", Json.float_or_null r.bound_energy_j);
      ("leakage_ratio_change", Json.float_or_null r.leakage_ratio_change);
    ]

let to_json t =
  let base =
    [
      ( "pack",
        Json.Obj
          [
            ("name", Json.String t.pack_name);
            ("digest", Json.String t.pack_digest);
          ] );
      ("gates", Json.List (List.map gate_row_to_json t.gates));
      ( "totals",
        Json.Obj
          [
            ("switching_j", Json.float_or_null t.switching_j);
            ("leakage_w", Json.float_or_null t.leakage_w);
            ("leakage_j", Json.float_or_null t.leakage_j);
            ("total_j", Json.float_or_null t.total_j);
            ("area_m2", Json.float_or_null t.area_m2);
            ("critical_path_s", Json.float_or_null t.critical_path_s);
            ("critical_output", Json.String t.critical_output);
            ("leakage_share", Json.float_or_null t.leakage_share);
          ] );
      ("bounds", Json.List (List.map bound_row_to_json t.bounds));
    ]
  in
  let diags =
    if t.diagnostics = [] then []
    else
      [
        ( "diagnostics",
          Json.List (List.map Diagnostic.to_json t.diagnostics) );
      ]
  in
  Json.Obj (base @ diags)

let pp ppf t =
  (* NaN's sign is the platform's business; print it one way. *)
  let g v = if Float.is_nan v then "nan" else Printf.sprintf "%.6g" v in
  let lines =
    [
      Printf.sprintf "technology %s (digest %s)" t.pack_name t.pack_digest;
      Printf.sprintf "  %-6s %5s %14s %14s %14s" "kind" "count" "switching_j"
        "leakage_w" "area_m2";
    ]
    @ List.map
        (fun r ->
          Printf.sprintf "  %-6s %5d %14s %14s %14s" (Gate.name r.kind)
            r.count (g r.switching_j) (g r.leakage_w) (g r.area_m2))
        t.gates
    @ [
        Printf.sprintf "  switching energy %s J" (g t.switching_j);
        Printf.sprintf "  leakage power    %s W" (g t.leakage_w);
        Printf.sprintf "  critical path    %s s (through %s)"
          (g t.critical_path_s) t.critical_output;
        Printf.sprintf "  leakage energy   %s J" (g t.leakage_j);
        Printf.sprintf "  total energy     %s J" (g t.total_j);
        Printf.sprintf "  leakage share    %s" (g t.leakage_share);
        Printf.sprintf "  area             %s m^2" (g t.area_m2);
        Printf.sprintf "  %-8s %-8s %10s %14s %10s" "epsilon" "eff-eps"
          "E/E0" "E_bound_j" "W/W0";
      ]
    @ List.map
        (fun r ->
          Printf.sprintf "  %-8s %-8s %10s %14s %10s" (g r.epsilon)
            (g r.effective_epsilon) (g r.energy_ratio) (g r.bound_energy_j)
            (g r.leakage_ratio_change))
        t.bounds
    @ List.map
        (fun d -> Format.asprintf "  %a" Diagnostic.pp d)
        t.diagnostics
  in
  Format.pp_print_string ppf (String.concat "\n" lines)
