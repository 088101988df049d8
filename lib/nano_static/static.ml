module Netlist = Nano_netlist.Netlist
module Gate = Nano_netlist.Gate
module Bdd = Nano_bdd.Bdd
module Reliability = Nano_faults.Reliability
module Diagnostic = Nano_lint.Diagnostic
module Json = Nano_util.Json

(* ------------------------------------------------------------------ *)
(* Intervals.                                                          *)
(* ------------------------------------------------------------------ *)

type interval = { lo : float; hi : float }

let clamp01 x = if x < 0. then 0. else if x > 1. then 1. else x

let make lo hi =
  let lo = clamp01 lo and hi = clamp01 hi in
  if lo <= hi then { lo; hi } else { lo = hi; hi = lo }

let point x =
  let x = clamp01 x in
  { lo = x; hi = x }

let is_point iv = iv.lo = iv.hi
let width iv = iv.hi -. iv.lo

let contains iv ?(slack = 0.) x = iv.lo -. slack <= x && x <= iv.hi +. slack
let complement iv = make (1. -. iv.hi) (1. -. iv.lo)

(* ------------------------------------------------------------------ *)
(* Interval signal probability: Fréchet-style per-kind bounds, valid   *)
(* under arbitrary dependence between the fanins (Parker–McCluskey     *)
(* interval arithmetic). Used only past the cone budget, where the     *)
(* independence the BDD path exploits can no longer be certified       *)
(* cheaply.                                                            *)
(* ------------------------------------------------------------------ *)

let sum_lo ivs = Array.fold_left (fun s iv -> s +. iv.lo) 0. ivs
let sum_hi ivs = Array.fold_left (fun s iv -> s +. iv.hi) 0. ivs

let prob_and ivs =
  let k = float_of_int (Array.length ivs) in
  let lo = sum_lo ivs -. (k -. 1.) in
  let hi = Array.fold_left (fun m iv -> Float.min m iv.hi) 1. ivs in
  make (Float.min lo hi) hi

let prob_or ivs =
  let lo = Array.fold_left (fun m iv -> Float.max m iv.lo) 0. ivs in
  let hi = sum_hi ivs in
  make lo (Float.max lo hi)

(* P(X <> Y) with X, Y of arbitrary dependence: the AND-probability
   P(X /\ Y) ranges over its Fréchet interval, so the symmetric
   difference p + q - 2 P(X /\ Y) ranges over [max(0, p - q', q - p'),
   min(p + q, 2 - p - q)] as the marginals range over their boxes. *)
let prob_xor2 a b =
  let lo = Float.max 0. (Float.max (a.lo -. b.hi) (b.lo -. a.hi)) in
  let at s = Float.min s (2. -. s) in
  let s_lo = a.lo +. b.lo and s_hi = a.hi +. b.hi in
  let hi =
    if s_lo <= 1. && 1. <= s_hi then 1. else Float.max (at s_lo) (at s_hi)
  in
  make (Float.min lo hi) hi

let prob_xor ivs =
  match Array.length ivs with
  | 0 -> point 0.
  | _ -> Array.fold_left prob_xor2 (point 0.) ivs

(* Majority = at least t ones out of k. Markov on the count of ones
   bounds the top; Markov on the count of zeros bounds the bottom. *)
let prob_majority ivs =
  let k = Array.length ivs in
  let t = (k / 2) + 1 in
  let hi = sum_hi ivs /. float_of_int t in
  let lo = (sum_lo ivs -. float_of_int (t - 1)) /. float_of_int (k - t + 1) in
  make (Float.min lo hi) hi

let prob_fallback kind fanin_probs =
  match kind with
  | Gate.Input | Gate.Const _ -> assert false (* sources handled upstream *)
  | Gate.Buf -> fanin_probs.(0)
  | Gate.Not -> complement fanin_probs.(0)
  | Gate.And -> prob_and fanin_probs
  | Gate.Nand -> complement (prob_and fanin_probs)
  | Gate.Or -> prob_or fanin_probs
  | Gate.Nor -> complement (prob_or fanin_probs)
  | Gate.Xor -> prob_xor fanin_probs
  | Gate.Xnor -> complement (prob_xor fanin_probs)
  | Gate.Majority -> prob_majority fanin_probs

(* ------------------------------------------------------------------ *)
(* Bounded exact signal probabilities on a shared BDD manager.         *)
(* ------------------------------------------------------------------ *)

let default_cone_budget = 512

(* Arity above which the threshold construction for Majority (plain
   Shannon recursion, no memoization) is not attempted. *)
let majority_bdd_arity_cap = 12

let combine_bdd budget m kind fanin_bdds =
  let fold2 op =
    (* Every fold step is a bounded apply: it stops once it has built
       budget + 1 nodes, so an oversized intermediate costs no more
       than the budget to reject, and a cut intermediate cuts the whole
       node. *)
    let n = Array.length fanin_bdds in
    let rec go acc i =
      if i = n then Some acc
      else
        match op acc fanin_bdds.(i) with
        | Some acc -> go acc (i + 1)
        | None -> None
    in
    if n = 0 then None else go fanin_bdds.(0) 1
  in
  let within f g h = Bdd.ite_within m ~limit:budget f g h in
  let band f g = within f g (Bdd.bdd_false m) in
  let bor f g = within f (Bdd.bdd_true m) g in
  (* The complement is not part of the result, so it is built outside
     the bound. *)
  let bxor f g = within f (Bdd.bnot m g) g in
  let negate = Option.map (Bdd.bnot m) in
  match kind with
  | Gate.Input | Gate.Const _ -> assert false
  | Gate.Buf -> Some fanin_bdds.(0)
  | Gate.Not -> Some (Bdd.bnot m fanin_bdds.(0))
  | Gate.And -> fold2 band
  | Gate.Nand -> negate (fold2 band)
  | Gate.Or -> fold2 bor
  | Gate.Nor -> negate (fold2 bor)
  | Gate.Xor -> fold2 bxor
  | Gate.Xnor -> negate (fold2 bxor)
  | Gate.Majority ->
    let k = Array.length fanin_bdds in
    if k > majority_bdd_arity_cap then None
    else begin
      let t = (k / 2) + 1 in
      let rec atleast t i =
        if t <= 0 then Bdd.bdd_true m
        else if i = k then Bdd.bdd_false m
        else
          Bdd.ite m fanin_bdds.(i) (atleast (t - 1) (i + 1)) (atleast t (i + 1))
      in
      (* Every node the outermost apply creates belongs to its result,
         so it alone can stop at the budget; the threshold functions of
         the remaining fanins are built in full. *)
      within fanin_bdds.(0) (atleast (t - 1) 1) (atleast t 1)
    end

(* ------------------------------------------------------------------ *)
(* Analysis results.                                                   *)
(* ------------------------------------------------------------------ *)

type node_result = {
  probability : interval;
  error : interval;
  activity : interval;
  exact : bool;
  criticality : float;
}

type t = {
  epsilon : float;
  input_probability : float;
  cone_budget : int;
  nodes : node_result array;
  per_output_error : (string * interval) list;
  any_output_error : interval;
  average_gate_activity : interval;
  exact_nodes : int;
  bdd_nodes : int;
}

(* Joint-pair propagation enumerates 4^arity fanin assignments; past
   this arity fall back to the interval rules instead of stalling. *)
let pair_arity_cap = 6

let analyze ?(input_probability = 0.5) ?(cone_budget = default_cone_budget)
    ?epsilon_of ~epsilon netlist =
  if not (epsilon >= 0. && epsilon <= 0.5) then
    invalid_arg "Static.analyze: epsilon must lie in [0, 1/2]";
  if not (input_probability >= 0. && input_probability <= 1.) then
    invalid_arg "Static.analyze: input_probability must lie in [0, 1]";
  let eps_of id kind =
    if not (Gate.is_logic kind) then 0.
    else
      match epsilon_of with
      | None -> epsilon
      | Some f ->
        let e = f id in
        if not (e >= 0. && e <= 0.5) then
          invalid_arg "Static.analyze: epsilon_of must return values in [0, 1/2]";
        e
  in
  let n = Netlist.node_count netlist in
  let fanouts = Netlist.fanout_counts netlist in
  (* Start the node store small: tree-shaped and control circuits touch
     a few dozen BDD nodes and the store doubles on demand, so a large
     pre-allocation only taxes the common case. *)
  let m = Bdd.manager ~initial_capacity:256 () in
  let prob = Array.make n (point 0.) in
  let err = Array.make n (point 0.) in
  let act = Array.make n (point 0.) in
  let bdd : Bdd.node option array = Array.make n None in
  let pair : Reliability.pair option array = Array.make n None in
  (* mixed.(v): some node of v's input cone (v included) drives more
     than one fanin pin, so two siblings reading v could be correlated.
     Constants are deterministic and never mix, whatever their fanout. *)
  let mixed = Array.make n false in
  let next_var = ref 0 in
  let input_prob = Array.make (max 1 (Netlist.input_count netlist)) 0.5 in
  (* One evaluator for the whole pass: its memo table persists across
     nodes, so shared sub-diagrams are priced once. Every entry of
     [input_prob] is set before any diagram referencing it is priced,
     and all entries carry the same [input_probability]. *)
  let eval_probability = Bdd.probability_fn m ~p:(fun v -> input_prob.(v)) in
  let eps_sum = ref 0. and eps_count = ref 0 in
  let exact_nodes = ref 0 and bdd_nodes = ref 0 in
  Netlist.iter netlist (fun id info ->
      let kind = info.Netlist.kind in
      let fanins = info.Netlist.fanins in
      (match kind with
      | Gate.Input ->
        let v = !next_var in
        incr next_var;
        input_prob.(v) <- input_probability;
        bdd.(id) <- Some (Bdd.var m v);
        prob.(id) <- point input_probability;
        pair.(id) <- Some (Reliability.input_pair input_probability);
        mixed.(id) <- fanouts.(id) > 1
      | Gate.Const v ->
        bdd.(id) <- Some (Bdd.of_bool m v);
        prob.(id) <- point (if v then 1. else 0.);
        pair.(id) <- Some (Reliability.const_pair v);
        mixed.(id) <- false
      | kind ->
        let eps = eps_of id kind in
        if Gate.is_logic kind then begin
          eps_sum := !eps_sum +. eps;
          incr eps_count
        end;
        mixed.(id) <-
          fanouts.(id) > 1
          || Array.exists (fun f -> mixed.(f)) fanins;
        (* Exact clean probability while the diagram stays small. *)
        let fanin_bdds =
          if Array.for_all (fun f -> bdd.(f) <> None) fanins then
            Some (Array.map (fun f -> Option.get bdd.(f)) fanins)
          else None
        in
        (match fanin_bdds with
        | Some fb -> bdd.(id) <- combine_bdd cone_budget m kind fb
        | None -> ());
        (* Exact joint-pair propagation where fanin cones are provably
           disjoint (no fanin cone contains a shared node). *)
        let exact_pair =
          Array.length fanins <= pair_arity_cap
          && Array.for_all (fun f -> pair.(f) <> None && not mixed.(f)) fanins
        in
        if exact_pair then begin
          let fp = Array.map (fun f -> Option.get pair.(f)) fanins in
          pair.(id) <- Some (Reliability.noisy_gate eps kind fp)
        end;
        (* Signal probability: pair and BDD agree where both exist. *)
        prob.(id) <-
          (match pair.(id), bdd.(id) with
          | _, Some node -> point (eval_probability node)
          | Some p, None -> point (Reliability.pair_clean_one p)
          | None, None ->
            prob_fallback kind (Array.map (fun f -> prob.(f)) fanins));
        (* Error probability. *)
        err.(id) <-
          (match pair.(id) with
          | Some p -> point (Reliability.pair_error p)
          | None -> begin
            match kind with
            | Gate.Buf -> err.(fanins.(0))
            | Gate.Not ->
              (* Single fanin: the disagreement event is exactly the
                 fanin's error event, so the channel map is exact on
                 both endpoints. *)
              let e = err.(fanins.(0)) in
              make
                (eps +. ((1. -. (2. *. eps)) *. e.lo))
                (eps +. ((1. -. (2. *. eps)) *. e.hi))
            | _ ->
              (* Union bound: the output can only disagree pre-channel
                 if some fanin disagrees. Monotone channel for
                 eps <= 1/2 maps [0, sum hi] through
                 e = eps + (1 - 2 eps) P(D). *)
              let d_hi =
                Float.min 1.
                  (Array.fold_left (fun s f -> s +. err.(f).hi) 0. fanins)
              in
              make eps (eps +. ((1. -. (2. *. eps)) *. d_hi))
          end));
      if pair.(id) <> None then incr exact_nodes;
      if bdd.(id) <> None then incr bdd_nodes;
      (* Noisy toggle rate 2q(1-q): q is the noisy one-probability,
         within err.hi of the clean probability. *)
      let q =
        match pair.(id) with
        | Some p -> point (Reliability.pair_noisy_one p)
        | None ->
          make (prob.(id).lo -. err.(id).hi) (prob.(id).hi +. err.(id).hi)
      in
      let toggle x = 2. *. x *. (1. -. x) in
      let a_lo = Float.min (toggle q.lo) (toggle q.hi) in
      let a_hi =
        if q.lo <= 0.5 && 0.5 <= q.hi then 0.5
        else Float.max (toggle q.lo) (toggle q.hi)
      in
      act.(id) <- make a_lo a_hi);
  (* Reverse criticality sweep: first-order sensitivity of the summed
     output error to each gate's epsilon, attenuating by the channel
     factor (1 - 2 eps) at every traversed gate (logical masking
     ignored, so the weight upper-bounds the true derivative). *)
  let crit = Array.make n 0. in
  List.iter (fun (_, node) -> crit.(node) <- crit.(node) +. 1.)
    (Netlist.outputs netlist);
  for id = n - 1 downto 0 do
    if crit.(id) > 0. then begin
      let info = Netlist.info netlist id in
      let atten = 1. -. (2. *. eps_of id info.Netlist.kind) in
      Array.iter
        (fun f -> crit.(f) <- crit.(f) +. (crit.(id) *. atten))
        info.Netlist.fanins
    end
  done;
  let nodes =
    Array.init n (fun id ->
        {
          probability = prob.(id);
          error = err.(id);
          activity = act.(id);
          exact = pair.(id) <> None;
          criticality =
            (if Gate.is_logic (Netlist.kind netlist id) then crit.(id) else 0.);
        })
  in
  let per_output_error =
    List.map (fun (name, node) -> (name, err.(node))) (Netlist.outputs netlist)
  in
  let any_output_error =
    match per_output_error with
    | [] -> point 0.
    | l ->
      make
        (List.fold_left (fun m (_, iv) -> Float.max m iv.lo) 0. l)
        (List.fold_left (fun s (_, iv) -> s +. iv.hi) 0. l)
  in
  let gate_count = ref 0 and act_lo = ref 0. and act_hi = ref 0. in
  Netlist.iter netlist (fun id info ->
      if Gate.is_logic info.Netlist.kind then begin
        incr gate_count;
        act_lo := !act_lo +. act.(id).lo;
        act_hi := !act_hi +. act.(id).hi
      end);
  let average_gate_activity =
    if !gate_count = 0 then point 0.
    else make (!act_lo /. float_of_int !gate_count)
           (!act_hi /. float_of_int !gate_count)
  in
  {
    epsilon =
      (if !eps_count = 0 then epsilon
       else !eps_sum /. float_of_int !eps_count);
    input_probability;
    cone_budget;
    nodes;
    per_output_error;
    any_output_error;
    average_gate_activity;
    exact_nodes = !exact_nodes;
    bdd_nodes = !bdd_nodes;
  }

let ranked_gates t netlist =
  let gates = ref [] in
  Netlist.iter netlist (fun id info ->
      if Gate.is_logic info.Netlist.kind then gates := id :: !gates);
  List.sort
    (fun a b ->
      match compare t.nodes.(b).criticality t.nodes.(a).criticality with
      | 0 -> compare a b
      | c -> c)
    (List.rev !gates)

let node_activity_estimate t =
  Array.map (fun r -> (r.activity.lo +. r.activity.hi) /. 2.) t.nodes

(* ------------------------------------------------------------------ *)
(* Diagnostics.                                                        *)
(* ------------------------------------------------------------------ *)

let pass = "static"
let vacuous iv = iv.hi >= 0.5

let diagnostics t netlist =
  let diags = ref [] in
  List.iter
    (fun (name, iv) ->
      if vacuous iv then
        diags :=
          Diagnostic.make Diagnostic.Warning ~pass ~code:"vacuous-bound"
            (Diagnostic.Out_port name)
            (Printf.sprintf
               "static error bound [%.6g, %.6g] for output %s reaches 1/2: \
                the analysis retains no reliability information at this \
                operating point"
               iv.lo iv.hi name)
          :: !diags)
    t.per_output_error;
  (* Collapse frontier: the first nodes (in topological order) whose
     bound goes vacuous while every fanin bound is still informative —
     where redundancy or a larger cone budget would help. *)
  Netlist.iter netlist (fun id info ->
      if
        Gate.is_logic info.Netlist.kind
        && vacuous t.nodes.(id).error
        && Array.for_all
             (fun f -> not (vacuous t.nodes.(f).error))
             info.Netlist.fanins
      then
        diags :=
          Diagnostic.make Diagnostic.Warning ~pass ~code:"bound-collapse"
            (Diagnostic.Node id)
            (Printf.sprintf
               "error bound first collapses to [%.6g, %.6g] at node %d%s: \
                accumulated fanin uncertainty crosses 1/2 here"
               t.nodes.(id).error.lo t.nodes.(id).error.hi id
               (match info.Netlist.name with
               | Some n -> Printf.sprintf " (%s)" n
               | None -> ""))
          :: !diags);
  List.sort Diagnostic.compare !diags

(* ------------------------------------------------------------------ *)
(* Encodings.                                                          *)
(* ------------------------------------------------------------------ *)

let interval_to_json iv =
  Json.Obj [ ("lo", Json.Float iv.lo); ("hi", Json.Float iv.hi) ]

let to_json ?(top = 16) t netlist =
  let outputs =
    List.map
      (fun (name, iv) ->
        let exact =
          match List.assoc_opt name (Netlist.outputs netlist) with
          | Some node -> t.nodes.(node).exact
          | None -> false
        in
        Json.Obj
          [
            ("name", Json.String name);
            ("lo", Json.Float iv.lo);
            ("hi", Json.Float iv.hi);
            ("exact", Json.Bool exact);
          ])
      t.per_output_error
  in
  let ranking =
    ranked_gates t netlist
    |> List.filteri (fun i _ -> i < top)
    |> List.map (fun id ->
           let info = Netlist.info netlist id in
           Json.Obj
             ([ ("node", Json.Int id) ]
             @ (match info.Netlist.name with
               | Some n -> [ ("name", Json.String n) ]
               | None -> [])
             @ [
                 ("criticality", Json.Float t.nodes.(id).criticality);
                 ("error", interval_to_json t.nodes.(id).error);
               ]))
  in
  let diags = diagnostics t netlist in
  Json.Obj
    ([
       ("model", Json.String (Netlist.name netlist));
       ("digest", Json.String (Netlist.digest netlist));
       ("epsilon", Json.Float t.epsilon);
       ("input_probability", Json.Float t.input_probability);
       ("cone_budget", Json.Int t.cone_budget);
       ("nodes", Json.Int (Array.length t.nodes));
       ("exact_nodes", Json.Int t.exact_nodes);
       ("bdd_nodes", Json.Int t.bdd_nodes);
       ("outputs", Json.List outputs);
       ("any_output_error", interval_to_json t.any_output_error);
       ("average_gate_activity", interval_to_json t.average_gate_activity);
       ("criticality", Json.List ranking);
     ]
    @
    if diags = [] then []
    else [ ("diagnostics", Json.List (List.map Diagnostic.to_json diags)) ])

let pp ?(top = 8) ppf (t, netlist) =
  let total = Array.length t.nodes in
  Format.fprintf ppf "static analysis: %s@." (Netlist.name netlist);
  Format.fprintf ppf "  epsilon %.6g  input probability %.6g  cone budget %d@."
    t.epsilon t.input_probability t.cone_budget;
  Format.fprintf ppf
    "  nodes %d  exact (tree) %d (%.1f%%)  bdd probabilities %d@." total
    t.exact_nodes
    (100. *. float_of_int t.exact_nodes /. float_of_int (max 1 total))
    t.bdd_nodes;
  Format.fprintf ppf "  %-24s %12s %12s %s@." "output" "error lo" "error hi"
    "exact";
  List.iter
    (fun (name, iv) ->
      Format.fprintf ppf "  %-24s %12.6g %12.6g %s%s@." name iv.lo iv.hi
        (if is_point iv then "point" else "interval")
        (if vacuous iv then "  VACUOUS" else ""))
    t.per_output_error;
  Format.fprintf ppf "  any-output error   [%.6g, %.6g]@." t.any_output_error.lo
    t.any_output_error.hi;
  Format.fprintf ppf "  avg gate activity  [%.6g, %.6g]@."
    t.average_gate_activity.lo t.average_gate_activity.hi;
  let ranked = ranked_gates t netlist in
  if ranked <> [] then begin
    Format.fprintf ppf "  top criticality:@.";
    List.iteri
      (fun i id ->
        if i < top then
          let info = Netlist.info netlist id in
          Format.fprintf ppf "    %2d. node %d%s  criticality %.6g@." (i + 1)
            id
            (match info.Netlist.name with
            | Some n -> Printf.sprintf " (%s)" n
            | None -> "")
            t.nodes.(id).criticality)
      ranked
  end;
  let diags = diagnostics t netlist in
  List.iter (fun d -> Format.fprintf ppf "  %a@." Diagnostic.pp d) diags
