(* Workload inputs, generated from the run's seed alone.

   Every workload keeps a fixed shape across seeds (which circuit sizes,
   how many revisits, which settings) and lets the seed pick only the
   instances: random netlists, delta values, technology packs, request
   order. That keeps run-to-run spread small while a change of seed
   still changes every byte the program under test receives. *)

module Json = Nano_util.Json
module Protocol = Nano_service.Protocol
module Suite = Nano_circuits.Suite
module Random_circuit = Nano_circuits.Random_circuit

let default_seed = 20050307

let rng seed tag = Random.State.make [| seed; tag |]

let line request =
  Json.to_string (Protocol.request_to_json { Protocol.request; timeout_ms = None })

let suite_netlist name =
  match Suite.find name with
  | Some entry -> entry.Suite.build ()
  | None -> invalid_arg ("perfbench: unknown suite circuit " ^ name)

let suite_blif name = Nano_blif.Blif.to_string (suite_netlist name)

let find_sub s pattern =
  let n = String.length pattern in
  let rec go i =
    if i + n > String.length s then invalid_arg "find_sub"
    else if String.sub s i n = pattern then i
    else go (i + 1)
  in
  go 0

type shape = { inputs : int; gates : int; outputs : int }

let random_netlist ~seed shape =
  Random_circuit.generate
    ~config:
      {
        Random_circuit.default_config with
        inputs = shape.inputs;
        gates = shape.gates;
        outputs = shape.outputs;
      }
    ~seed ()

(* Twelve inputs or more: at ten or fewer, rugged_lite's two-level
   collapse dominates every other layer by two orders of magnitude. *)
let r100 = { inputs = 12; gates = 100; outputs = 4 }
let r1600 = { inputs = 16; gates = 1600; outputs = 12 }
let r3000 = { inputs = 24; gates = 3000; outputs = 16 }
let r8000 = { inputs = 32; gates = 8000; outputs = 24 }

(* ------------------------------------------------------------------ *)
(* explore: cold analyze --measure requests, half of them revisits.     *)
(* ------------------------------------------------------------------ *)

let explore_epsilons = [ 0.001; 0.005; 0.01; 0.05; 0.1 ]
let explore_vectors = 2048
let explore_named = [| "c17"; "rca8"; "parity16"; "alu8"; "mult8"; "mult16" |]

type explore = {
  rng : Random.State.t;
  mutable circuit : Protocol.circuit;  (** the current pair's circuit *)
  mutable next : int;
}

let explore ~seed = { rng = rng seed 1; circuit = Protocol.Named "c17"; next = 0 }

(* A suite circuit as BLIF with one extra, unused primary input: new to
   every cache (the strash digest keeps primary inputs), while the
   logic, and so the cost, stays that of the suite circuit. *)
let padded name k =
  let blif = suite_blif name in
  let at = find_sub blif "\n.outputs" in
  String.sub blif 0 at ^ Printf.sprintf " pad%d" k ^ String.sub blif at (String.length blif - at)

type visit = Suite of string | Random of shape | Big

(* Requests come in pairs: a visit to a circuit the daemon has never
   seen, then a revisit of it with a new delta, which misses the
   response cache and hits the profile cache. Every thirteenth pair is
   two by-name requests instead, which after their first round are
   revisits too. New circuits are suite circuits made new by padding
   and seeded random netlists of ~100 to ~8000 gates. The padded
   circuits' cost is fixed by the suite, and the mix is laid out so the
   median falls among the alu8 requests and p90 among the datapath32
   ones, with the seed-dependent random netlists away from both. (No
   multipliers: their BLIF covers make the lint preflight, not the
   pipeline, the cost; see NOTES.md.) *)
let explore_visits =
  [| Suite "c17"; Suite "alu8"; Random r100; Suite "datapath32"; Suite "rca8";
     Suite "alu8"; Suite "datapath32"; Suite "c17"; Suite "parity16"; Suite "alu8";
     Suite "datapath32"; Big |]

let explore_bigs = [| r1600; r3000; r8000 |]

let explore_next g =
  let i = g.next in
  g.next <- i + 1;
  let period = Array.length explore_visits + 1 in
  let pair = i / 2 in
  let slot = pair mod period in
  let circuit =
    if slot = period - 1 then
      Protocol.Named
        explore_named.(((pair / period * 2) + (i mod 2)) mod Array.length explore_named)
    else if i mod 2 = 1 then g.circuit
    else begin
      let k = Random.State.bits g.rng in
      let c =
        match explore_visits.(slot) with
        | Suite name -> Protocol.Blif (padded name k)
        | Random shape -> Protocol.Blif (Nano_blif.Blif.to_string (random_netlist ~seed:k shape))
        | Big ->
          let shape = explore_bigs.(pair / period mod Array.length explore_bigs) in
          Protocol.Blif (Nano_blif.Blif.to_string (random_netlist ~seed:k shape))
      in
      g.circuit <- c;
      c
    end
  in
  (* Distinct per request, so no request line ever repeats. *)
  let delta =
    0.001 +. (1e-5 *. (float_of_int i +. Random.State.float g.rng 1.))
  in
  let tech =
    if i mod 4 = 3 then
      Some
        (Protocol.Tech_named
           (if Random.State.bool g.rng then "cmos55" else "nanodev"))
    else None
  in
  line
    (Protocol.Analyze
       {
         circuit;
         delta;
         leakage_share0 = 0.5;
         epsilons = explore_epsilons;
         no_map = false;
         measure = true;
         vectors = explore_vectors;
         tech;
       })

(* ------------------------------------------------------------------ *)
(* static_cli: one `nanobound static|lint --format json` per job.       *)
(* ------------------------------------------------------------------ *)

type verb = Static | Lint

type job = {
  circuit : string;  (** file stem of the BLIF input *)
  verb : verb;
  epsilon : float;
  input_probability : float;
  cone_budget : int;
}

let large_cone_budget = 4096

type static_circuit = {
  stem : string;
  blif : string;
  large : bool;  (** also run at two quieter points under the larger cone budget *)
  lint : bool;  (** also linted *)
}

(* Fan-out-free trees (every interval exact), the suite datapaths, and
   reconvergent random netlists of ~100 and ~3000 gates. Each circuit
   runs static at the default operating point and at a noisier one
   under a biased input distribution; some also under the larger cone
   budget, and some are linted (not mult16, whose BLIF lint takes
   seconds; see NOTES.md). The mix is laid out for steady quantiles:
   the median run falls among ~10-30 ms static runs on fixed mid-sized
   datapaths, and p90 inside a group of eight ~180 ms large-budget runs,
   while the seed-dependent random netlists sit at the two ends. *)
let static_circuits ~seed =
  let g = rng seed 2 in
  let module T = Nano_circuits.Trees in
  let c ?(large = false) ?(lint = false) stem n =
    { stem; blif = Nano_blif.Blif.to_string n; large; lint }
  in
  let suite ?large ?lint name = c ?large ?lint name (suite_netlist name) in
  let random k shape =
    c (Printf.sprintf "rand%d_%d" shape.gates k)
      (random_netlist ~seed:(Random.State.bits g) shape)
  in
  [
    c ~large:true "tree_parity32" (T.parity_tree ~inputs:32 ~fanin:2);
    c ~large:true "tree_maj27" (T.majority_tree ~inputs:27);
    suite "parity16";
    suite ~large:true ~lint:true "rca8";
  ]
  @ List.map (suite ~lint:true)
      [ "rca16"; "cla16"; "alu8"; "rca32"; "sec32"; "datapath32" ]
  @ List.map (suite ~large:true ~lint:true) [ "csel16"; "cskip16"; "bcdadd8"; "alu9" ]
  @ List.map suite [ "datapath12"; "mult8"; "mult16" ]
  @ [ random 0 r100; random 1 r100; random 2 r3000 ]

let static_jobs circuits =
  List.concat_map
    (fun sc ->
      let job verb epsilon input_probability cone_budget =
        { circuit = sc.stem; verb; epsilon; input_probability; cone_budget }
      in
      [
        job Static 0.01 0.5 Nano_static.Static.default_cone_budget;
        job Static 0.05 0.25 Nano_static.Static.default_cone_budget;
      ]
      @ (if sc.large then
           [ job Static 0.001 0.5 large_cone_budget; job Static 0.005 0.5 large_cone_budget ]
         else [])
      @ if sc.lint then [ job Lint 0.01 0.5 0 ] else [])
    circuits

(* One pass over the jobs, in a seeded order. *)
let shuffled g jobs =
  let a = Array.copy jobs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int g (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let job_args job ~file =
  match job.verb with
  | Static ->
    [
      "static"; file; "--format"; "json"; "--epsilon"; Json.float_repr job.epsilon;
      "--input-probability"; Json.float_repr job.input_probability;
      "--cone-budget"; string_of_int job.cone_budget;
    ]
  | Lint -> [ "lint"; file; "--format"; "json"; "--epsilon"; Json.float_repr job.epsilon ]

(* ------------------------------------------------------------------ *)
(* warm_serve: a key set answered once, then ~90% repeats of it.        *)
(* ------------------------------------------------------------------ *)

let warm_named = [ "c17"; "rca8"; "parity16"; "alu8"; "mult8"; "mult16" ]

(* Analyze (measured, and closed-form with a tech pack), static and
   lint, each on the named circuit and on its BLIF spelling, plus six
   bounds scenarios: 52 keys, well inside the default 256-entry cache. *)
let warm_keyset ~seed =
  let g = rng seed 3 in
  let pick l = List.nth l (Random.State.int g (List.length l)) in
  let per_circuit name =
    let blif = suite_blif name in
    List.concat_map
      (fun circuit ->
        let analyze ~measure ~tech =
          Protocol.Analyze
            {
              circuit;
              delta = pick [ 0.01; 0.02; 0.05 ];
              leakage_share0 = 0.5;
              epsilons = explore_epsilons;
              no_map = false;
              measure;
              vectors = 1024;
              tech;
            }
        in
        let static =
          Protocol.Static
            {
              circuit;
              epsilon = pick [ 0.005; 0.01; 0.02 ];
              input_probability = 0.5;
              cone_budget = Nano_static.Static.default_cone_budget;
              tech = None;
            }
        in
        match circuit with
        (* The BLIF round trip expands mult16's XORs into covers that
           rugged_lite and lint need seconds for (see NOTES.md), so its
           BLIF spelling is keyed for static only. *)
        | Protocol.Blif _ when name = "mult16" -> [ static ]
        (* A second static key on mult8's BLIF spelling makes its hits
           (~2 ms, parse and digest) a group wide enough that p90 falls
           inside it rather than at its edge. *)
        | Protocol.Blif _ when name = "mult8" ->
          [
            analyze ~measure:true ~tech:None;
            analyze ~measure:false
              ~tech:(Some (Protocol.Tech_named (pick [ "cmos55"; "nanodev" ])));
            static;
            (match static with
            | Protocol.Static s -> Protocol.Static { s with epsilon = 0.001 }
            | other -> other);
            Protocol.Lint
              { circuit; max_fanin = 3; epsilon = 0.01; delta = pick [ 0.01; 0.05 ] };
          ]
        | _ ->
          [
            analyze ~measure:true ~tech:None;
            analyze ~measure:false
              ~tech:(Some (Protocol.Tech_named (pick [ "cmos55"; "nanodev" ])));
            static;
            Protocol.Lint
              { circuit; max_fanin = 3; epsilon = 0.01; delta = pick [ 0.01; 0.05 ] };
          ])
      [ Protocol.Named name; Protocol.Blif blif ]
  in
  let bounds k =
    Protocol.Bounds
      {
        Nano_bounds.Metrics.epsilon = 0.001 *. float_of_int (1 + k);
        delta = 0.01;
        fanin = 2 + (k mod 2);
        sensitivity = 8 + Random.State.int g 8;
        error_free_size = 100 * (1 + k);
        inputs = 16;
        sw0 = 0.3;
        leakage_share0 = 0.5;
      }
  in
  Array.of_list
    (List.map line (List.concat_map per_circuit warm_named @ List.init 6 bounds))

let fresh_share = 0.1

(* The request stream of one warm connection: mostly uniform repeats of
   the key set, and one-shot bounds/lint keys that the daemon has never
   seen (a cache insert plus a journal append each). *)
type warm_stream = {
  wrng : Random.State.t;
  conn : int;
  keyset : string array;
  lint_bases : string array;
  mutable fresh : int;
}

let warm_stream ~seed ~conn keyset =
  let g = rng seed (10 + conn) in
  let lint_bases =
    Array.init 16 (fun _ ->
        Nano_blif.Blif.to_string
          (random_netlist ~seed:(Random.State.bits g)
             { inputs = 6; gates = 24; outputs = 3 }))
  in
  { wrng = g; conn; keyset; lint_bases; fresh = 0 }

(* [`Repeat k] is key-set entry [k]; [`Fresh line] a never-seen key. *)
let warm_next s =
  if Random.State.float s.wrng 1. < fresh_share then begin
    let n = s.fresh in
    s.fresh <- n + 1;
    let uid = (2 * n) + s.conn in
    let request =
      if n mod 2 = 0 then
        Protocol.Bounds
          {
            Nano_bounds.Metrics.epsilon = 1e-4 +. (1e-8 *. float_of_int uid);
            delta = 0.01;
            fanin = 2;
            sensitivity = 10;
            error_free_size = 500;
            inputs = 16;
            sw0 = 0.3;
            leakage_share0 = 0.5;
          }
      else
        let base = s.lint_bases.(Random.State.int s.wrng (Array.length s.lint_bases)) in
        Protocol.Lint
          {
            circuit = Protocol.Blif (Printf.sprintf "# fresh %d\n%s" uid base);
            max_fanin = 3;
            epsilon = 0.01;
            delta = 0.01;
          }
    in
    `Fresh (line request)
  end
  else `Repeat (Random.State.int s.wrng (Array.length s.keyset))
