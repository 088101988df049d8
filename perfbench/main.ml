(* nanobound benchmark driver.

     bash perfbench/run.sh --workload explore|static_cli|warm_serve \
       --seed N --seconds S --trace 0|1

   Generates the workload's inputs from the seed, drives the program
   under test (a `nanobound serve` daemon over TCP, or one `nanobound
   static|lint` process at a time) in a closed loop for S seconds,
   checks every output, and prints the metrics as the last line of
   standard output. With --trace 1 it also replays the request stream
   in this process, one span per layer call, and prints the per-layer
   metrics instead. See NOTES.md. *)

open Perfbench
module Json = Nano_util.Json

let now = Unix.gettimeofday
let t_origin = now ()

let progress fmt =
  Printf.ksprintf (fun s -> Printf.eprintf "perfbench [%6.2fs] %s\n%!" (now () -. t_origin) s) fmt

type opts = { workload : string; seed : int; seconds : float; traced : bool; exe : string }

let parse_args () =
  let workload = ref "" and seed = ref Gen.default_seed and seconds = ref 10.
  and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME explore, static_cli or warm_serve");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  if not (List.mem !workload [ "explore"; "static_cli"; "warm_serve" ]) then begin
    prerr_endline "perfbench: --workload must be explore, static_cli or warm_serve";
    exit 2
  end;
  let exe = "_build/default/bin/nanobound.exe" in
  if not (Sys.file_exists exe) then begin
    prerr_endline ("perfbench: no program under test at " ^ exe ^ "; run through run.sh");
    exit 2
  end;
  { workload = !workload; seed = !seed; seconds = !seconds; traced = !trace <> 0; exe }

let nproc = Domain.recommended_domain_count ()

(* One evaluation domain: on a small machine shared with the load
   generator (and other tenants), a second domain makes every parallel
   section wait for whichever core is busiest, and the figures measure
   the scheduler. Results are jobs-independent either way. *)
let jobs = 1

(* ---- scratch space inside the checkout ---------------------------- *)

let out_dir = ".perfbench"

let rec remove path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let work_dir () =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let dir = Filename.concat out_dir (Printf.sprintf "work-%d" (Unix.getpid ())) in
  remove dir;
  Sys.mkdir dir 0o755;
  at_exit (fun () -> remove dir);
  dir

let copy_file src dst =
  let ic = open_in_bin src in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc s;
  close_out oc

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* ---- statistics ---------------------------------------------------- *)

let quantile values q =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let mean = function
  | [] -> 0.
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* ---- stamp and result lines ---------------------------------------- *)

(* The checkout may not be a git repository, so the stamp carries both
   the git rev (when there is one) and a digest of the library and CLI
   sources, which identifies the code either way. *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p else [ p ])
  in
  let paths = files "lib" @ files "bin" in
  Digest.to_hex
    (Digest.string (String.concat "" (List.map (fun p -> p ^ Digest.file p) paths)))

let git_rev () =
  let read path =
    try Some (String.trim (In_channel.with_open_bin path In_channel.input_all))
    with Sys_error _ -> None
  in
  let packed name =
    Option.bind (read ".git/packed-refs") (fun refs ->
        List.find_map
          (fun l ->
            match String.split_on_char ' ' l with
            | [ rev; n ] when n = name -> Some rev
            | _ -> None)
          (String.split_on_char '\n' refs))
  in
  match read ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head -> (
    let name = String.sub head 5 (String.length head - 5) in
    match read (Filename.concat ".git" name) with
    | Some rev -> rev
    | None -> Option.value (packed name) ~default:"unknown")
  | Some rev -> rev
  | None -> "unknown"

let print_stamp o =
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ( "stamp",
              Json.Obj
                [
                  ("workload", Json.String o.workload);
                  ("seed", Json.Int o.seed);
                  ("seconds", Json.Float o.seconds);
                  ("trace", Json.Bool o.traced);
                  ("git_rev", Json.String (git_rev ()));
                  ("source_digest", Json.String (source_digest ()));
                  ("simd_level", Json.String (Nano_util.Prng.simd_level ()));
                  ( "block_width",
                    Json.Int (Nano_netlist.Compiled.default_block_width ()) );
                  ("jobs", Json.Int jobs);
                  ("nproc", Json.Int nproc);
                ] );
          ]))

let finite v = if Float.is_finite v then v else 0.

let print_result ~attempted ~failed metrics =
  List.iter
    (fun (name, v, unit) -> Printf.eprintf "  %-32s %14.6g %s\n" name v unit)
    metrics;
  Printf.eprintf "  attempted %d, failed %d, failed_ratio %g\n%!" attempted failed
    (ratio failed (max 1 attempted));
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0));
            ("attempted", Json.Int (max 1 attempted));
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, v, unit) ->
                     ( name,
                       Json.Obj
                         [ ("value", Json.Float (finite v)); ("unit", Json.String unit) ]
                     ))
                   metrics) );
          ]))

(* ---- what every workload measures ----------------------------------- *)

type run = {
  setup_s : float;
  latencies : float list;  (** seconds, one per completed timed request *)
  wall : float;  (** timed phase, input generation excluded *)
  attempted : int;
  failed : int;
  peak_rss_mb : float;
  quality : Check.interval list;
}

let end_to_end r =
  let vacuous, width = Check.quality r.quality in
  let n = List.length r.latencies in
  if n < 100 then
    Printf.eprintf "perfbench: only %d samples, fewer than ten beyond p90\n%!" n;
  [
    ("latency_p50_ms", 1e3 *. quantile r.latencies 0.5, "ms");
    ("latency_p90_ms", 1e3 *. quantile r.latencies 0.9, "ms");
    ("throughput_rps", float_of_int n /. r.wall, "req/s");
    ("setup_s", r.setup_s, "s");
    ("peak_rss_mb", r.peak_rss_mb, "MiB");
    ("vacuous_outputs", float_of_int vacuous, "count");
    ("error_bound_width", width, "prob.");
  ]

let print_end_to_end r =
  Printf.eprintf "end to end (the untraced timed phase of this run):\n";
  List.iter (fun (n, v, u) -> Printf.eprintf "  %-32s %14.6g %s\n" n v u) (end_to_end r)

(* Set up [times] daemons, keep the last: the median launch-to-first-
   reply time, journal replay included, is the run's setup_s. *)
let setup_daemon o ~times ~args ~log =
  let rec go k acc =
    let d = Proc.launch ~exe:o.exe ~args ~log in
    if k = 1 then (d, quantile (d.Proc.setup_s :: acc) 0.5)
    else begin
      Proc.stop d;
      go (k - 1) (d.Proc.setup_s :: acc)
    end
  in
  go times []

let stats d =
  match Json.parse (Proc.request d "{\"kind\":\"stats\"}") with
  | Ok j -> Option.value (Json.member "result" j) ~default:Json.Null
  | Error _ -> Json.Null

let rec path_int json = function
  | [] -> Option.value (Json.to_int json) ~default:0
  | k :: rest -> (
    match Json.member k json with Some v -> path_int v rest | None -> 0)

(* Counter deltas between two stats replies. *)
let delta before after path = path_int after path - path_int before path

(* ---- per-layer metrics from a traced replay ------------------------- *)

(* What the traced run measured in process. *)
type pass = {
  spans : Trace.span list;
  untraced_s : float;  (** total, untraced pipeline *)
  traced_s : float;  (** total, traced replay *)
  minor_words : float;  (** allocated by the traced replay *)
  major_collections : int;
  memo : int * int;  (** compiled-memo hits, misses of the traced replay *)
}

type layer_inputs = {
  pass : pass;
  replay : Replay.counters;
  requests : int;
  stats : (Json.t * Json.t) option;  (** daemon stats around the timed phase *)
  lines_overhead_us : float;
  http_overhead_us : float;
  cli_startup_ms : float;
  cli_overhead_ms : float;
}

let per_layer l =
  let p = l.pass in
  let t = Trace.self_times p.spans in
  let busy name = fst (Trace.busy t name) in
  let calls name = float_of_int (snd (Trace.busy t name)) in
  let per_call_us name = if calls name = 0. then 0. else 1e6 *. busy name /. calls name in
  let n = max 1 l.requests in
  let d path = match l.stats with Some (b, a) -> delta b a path | None -> 0 in
  let hit_ratio cache =
    let h = d [ "caches"; cache; "hits" ] and m = d [ "caches"; cache; "misses" ] in
    ratio h (h + m)
  in
  let memo_hits, memo_misses =
    match l.stats with
    | Some _ ->
      (d [ "compiled_programs"; "memo_hits" ], d [ "compiled_programs"; "memo_misses" ])
    | None -> p.memo
  in
  let c = l.replay in
  let layer name = [ (name ^ ".busy_s", busy name, "s"); (name ^ ".calls", calls name, "count") ] in
  layer "blif" @ layer "resolve" @ layer "strash" @ layer "lint"
  @ [
      ("synth.busy_s", busy "synth", "s");
      ("synth.calls_per_req", calls "synth" /. float_of_int n, "count/req");
      ("compiled.memo_misses_per_req", ratio memo_misses n, "count/req");
      ("compiled.memo_hit_ratio", ratio memo_hits (memo_hits + memo_misses), "ratio");
    ]
  @ layer "profile"
  @ [
      ("noisy_sim.busy_s", busy "noisy_sim", "s");
      ( "noisy_sim.lane_words_per_s",
        (if busy "noisy_sim" = 0. then 0. else c.Replay.lane_words /. busy "noisy_sim"),
        "words/s" );
      ("noisy_sim.gc_minor_words", c.Replay.grid_minor_words, "words");
    ]
  @ layer "tech"
  @ [
      ("static.busy_s", busy "static", "s");
      ( "static.nodes_per_s",
        (if busy "static" = 0. then 0. else float_of_int c.Replay.static_nodes /. busy "static"),
        "nodes/s" );
      ("static.exact_ratio", ratio c.Replay.static_exact c.Replay.static_nodes, "ratio");
      ("static.bdd_ratio", ratio c.Replay.static_bdd c.Replay.static_nodes, "ratio");
      ("protocol.decode_us", per_call_us "decode", "us");
      ("protocol.encode_us", per_call_us "encode", "us");
      ("protocol.reply_bytes", ratio c.Replay.reply_bytes c.Replay.replies, "bytes");
      ("cache.responses_hit_ratio", hit_ratio "responses", "ratio");
      ("cache.profiles_hit_ratio", hit_ratio "profiles", "ratio");
      ("cache.coalesced_ratio", ratio (d [ "coalesced" ]) n, "ratio");
      ( "cache.evictions",
        float_of_int
          (d [ "caches"; "responses"; "evictions" ] + d [ "caches"; "profiles"; "evictions" ]),
        "count" );
      ("journal.appended", float_of_int (d [ "journal"; "appended" ]), "count");
      ("journal.append_us", per_call_us "journal.append", "us");
      ("journal.replay_s", busy "journal.replay", "s");
      ("transport.lines_overhead_us", l.lines_overhead_us, "us");
      ("transport.http_overhead_us", l.http_overhead_us, "us");
      ("transport.rejected", float_of_int (d [ "rejected" ]), "count");
      ("cli.startup_ms", l.cli_startup_ms, "ms");
      ("cli.overhead_ms", l.cli_overhead_ms, "ms");
      ("gc.minor_words_per_req", p.minor_words /. float_of_int n, "words/req");
      ("gc.major_collections", float_of_int p.major_collections, "count");
      ("trace.overhead_us", 1e6 *. (p.traced_s -. p.untraced_s) /. float_of_int n, "us");
      ("trace.spans", float_of_int (List.length p.spans), "count");
    ]

(* The traced run's in-process passes: each item goes through the
   untraced pipeline and then through the traced replay, in lockstep,
   so that drift in machine speed during the run hits both alike.
   Spans recorded before the first step (a traced set-up) are kept. *)
type pairer = {
  mutable n : int;
  mutable tu : float;
  mutable tt : float;
  mutable minor : float;
  mutable major : int;
  mutable hits : int;
  mutable misses : int;
}

let pairer () = { n = 0; tu = 0.; tt = 0.; minor = 0.; major = 0; hits = 0; misses = 0 }

(* One item: (untraced result, untraced seconds, traced result). *)
let pair_step p ~untraced ~traced x =
  let t0 = now () in
  let a = untraced x in
  let t1 = now () in
  Trace.request := p.n;
  p.n <- p.n + 1;
  let gc0 = Gc.quick_stat () and m0 = Nano_netlist.Compiled.memo_stats () in
  Trace.enabled := true;
  let t2 = now () in
  let b = traced x in
  let t3 = now () in
  Trace.enabled := false;
  let gc1 = Gc.quick_stat () and m1 = Nano_netlist.Compiled.memo_stats () in
  p.minor <- p.minor +. gc1.Gc.minor_words -. gc0.Gc.minor_words;
  p.major <- p.major + gc1.Gc.major_collections - gc0.Gc.major_collections;
  p.hits <- p.hits + m1.Nano_netlist.Compiled.memo_hits - m0.Nano_netlist.Compiled.memo_hits;
  p.misses <-
    p.misses + m1.Nano_netlist.Compiled.memo_misses - m0.Nano_netlist.Compiled.memo_misses;
  p.tu <- p.tu +. (t1 -. t0);
  p.tt <- p.tt +. (t3 -. t2);
  (a, t1 -. t0, b)

let pair_finish p =
  let spans = !Trace.spans in
  Trace.reset ();
  {
    spans;
    untraced_s = p.tu;
    traced_s = p.tt;
    minor_words = p.minor;
    major_collections = p.major;
    memo = (p.hits, p.misses);
  }

let paired ~untraced ~traced items =
  let p = pairer () in
  let results = List.map (pair_step p ~untraced ~traced) items in
  (results, pair_finish p)

let traced_setup f =
  Trace.reset ();
  Trace.enabled := true;
  let v = f () in
  Trace.enabled := false;
  v

let untraced_times results = List.map (fun (_, t, _) -> t) results

let write_spans o spans =
  let path =
    Filename.concat out_dir (Printf.sprintf "spans-%s-%d.jsonl" o.workload o.seed)
  in
  Trace.write path spans;
  Printf.eprintf "perfbench: %d spans written to %s\n%!" (List.length spans) path

let service_config ?journal () =
  { (Nano_service.Service.default_config ()) with jobs; workers = 0; journal }

(* ---- explore -------------------------------------------------------- *)

(* Bound quality is read off the first requests of the stream, which
   every run answers, so it does not move with throughput. *)
let explore_quality_prefix = 32

let explore o dir =
  let g = Gen.explore ~seed:o.seed in
  let args = [ "--workers"; "0"; "--jobs"; string_of_int jobs ] in
  let d, setup_s = setup_daemon o ~times:9 ~args ~log:(Filename.concat dir "daemon.log") in
  (* Each reply is checked right after it arrives, byte for byte against
     the in-process replay of the same line (with --trace 1, also
     against Service.handle_line, and with spans on). The check, and a
     pause half as long as the request, run between timed requests, so
     the timed phase spreads over about 2.5 times its length of wall
     time and averages more of the machine's speed changes. *)
  let rp = Replay.create ~jobs () in
  let svc = lazy (Nano_service.Service.create ~config:(service_config ()) ()) in
  let p = pairer () in
  let check line reply =
    let fails expected = Check.reply_failure ~expected (Some reply) in
    if not o.traced then (fails (Replay.handle rp line), 0.)
    else
      let a, t, b =
        pair_step p ~untraced:(Nano_service.Service.handle_line (Lazy.force svc))
          ~traced:(Replay.handle rp) line
      in
      (fails a + fails b, t)
  in
  let before = stats d in
  let sent = ref [] and wall = ref 0. and failed = ref 0 and lost = ref 0 in
  (try
     while !wall < o.seconds do
       let line = Gen.explore_next g in
       let t0 = now () in
       Proc.send d.Proc.conn (line ^ "\n");
       let reply = Proc.read_line d.Proc.conn in
       let dt = now () -. t0 in
       wall := !wall +. dt;
       let bad, t_handler = check line reply in
       failed := !failed + bad + Bool.to_int (not (Check.is_ok reply));
       sent := (reply, dt, t_handler) :: !sent;
       Unix.sleepf (dt /. 2.)
     done
   with e ->
     Printf.eprintf "perfbench: daemon stopped answering: %s\n%!" (Printexc.to_string e);
     incr lost);
  let sent = List.rev !sent in
  let after = stats d in
  let peak_rss_mb = Proc.peak_rss_mb d.Proc.pid in
  Proc.stop d;
  let r =
    {
      setup_s;
      latencies = List.map (fun (_, dt, _) -> dt) sent;
      wall = !wall;
      attempted = List.length sent + !lost;
      failed = !failed + !lost;
      peak_rss_mb;
      quality =
        List.concat_map
          (fun (reply, _, _) -> Check.measured_intervals reply)
          (List.filteri (fun i _ -> i < explore_quality_prefix) sent);
    }
  in
  if not o.traced then (r, end_to_end r)
  else begin
    let pass = pair_finish p in
    write_spans o pass.spans;
    print_end_to_end r;
    ( r,
      per_layer
        {
          pass;
          replay = rp.Replay.counters;
          requests = List.length sent;
          stats = Some (before, after);
          lines_overhead_us = 1e6 *. mean (List.map (fun (_, dt, t) -> dt -. t) sent);
          http_overhead_us = 0.;
          cli_startup_ms = 0.;
          cli_overhead_ms = 0.;
        } )
  end

(* ---- static_cli ------------------------------------------------------ *)

let mc_vectors = 4096

let static_cli o dir =
  let circuits = Gen.static_circuits ~seed:o.seed in
  let file name = Filename.concat dir (name ^ ".blif") in
  List.iter (fun sc -> write_file (file sc.Gen.stem) sc.Gen.blif) circuits;
  let jobs_arr = Array.of_list (Gen.static_jobs circuits) in
  let njobs = Array.length jobs_arr in
  let args i = Gen.job_args jobs_arr.(i) ~file:(file jobs_arr.(i).Gen.circuit) in
  (* Set-up: the time until the CLI can answer at all. *)
  let startup () =
    let _, _, wall = Proc.run_capture o.exe [ "--version" ] in
    wall
  in
  let setup_s = quantile (List.init 7 (fun _ -> startup ())) 0.5 in
  let order = Gen.rng o.seed 4 in
  let pass = ref [||] in
  let runs = ref [] and t_start = now () in
  let k = ref 0 in
  (* Whole passes only, so every run weighs the jobs alike: the timed
     phase ends at the first pass boundary after --seconds. *)
  let paused = ref 0. in
  while !k mod njobs <> 0 || now () -. t_start -. !paused < o.seconds do
    if !k mod njobs = 0 then begin
      if !k > 0 then begin
        (* A pause between passes widens the run's time base, as the
           other workloads do. *)
        Unix.sleepf 1.;
        paused := !paused +. 1.
      end;
      pass := Gen.shuffled order (Array.init njobs Fun.id)
    end;
    let i = !pass.(!k mod njobs) in
    let out, code, wall = Proc.run_capture o.exe (args i) in
    runs := (i, out, code, wall) :: !runs;
    incr k
  done;
  let wall_total = now () -. t_start -. !paused in
  let runs = List.rev !runs in
  let peak_rss_mb = float_of_int (Proc.children_maxrss_kb ()) /. 1024. in
  (* Checks: exit status 0 or 1; the first output of each static job
     contains its pinned-seed Monte-Carlo reference; later outputs of a
     job repeat the first byte for byte; lint output matches the
     in-process report. *)
  let first = Array.make njobs None in
  List.iter (fun (i, out, _, _) -> if first.(i) = None then first.(i) <- Some out) runs;
  let verdict =
    Array.mapi
      (fun i out ->
        match out with
        | None -> (true, [])
        | Some out -> (
          let job = jobs_arr.(i) in
          let path = file job.Gen.circuit in
          match job.Gen.verb with
          | Gen.Lint ->
            let options = { Nano_lint.Lint.default_options with epsilon = job.Gen.epsilon } in
            let expected =
              match Nano_lint.Lint.run_blif_file ~options path with
              | Ok report -> Json.to_string (Nano_lint.Lint.report_to_json report) ^ "\n"
              | Error msg -> msg
            in
            (String.equal out expected, [])
          | Gen.Static -> (
            match Result.map Check.static_intervals (Json.parse (String.trim out)) with
            | Ok (Some ivs) ->
              let netlist = Result.get_ok (Nano_blif.Blif.parse_file path) in
              let mc =
                Nano_faults.Noisy_sim.simulate ~seed:0x5eed ~vectors:mc_vectors
                  ~input_probability:job.Gen.input_probability ~epsilon:job.Gen.epsilon
                  netlist
              in
              let misses =
                Check.containment_failures ~vectors:mc_vectors
                  ~reference:mc.Nano_faults.Noisy_sim.per_output_error ivs
              in
              (misses = 0, ivs)
            | _ -> (false, []))))
      first
  in
  let failed =
    List.length
      (List.filter
         (fun (i, out, code, _) ->
           (code <> 0 && code <> 1)
           || (not (fst verdict.(i)))
           || not (Option.equal String.equal (Some out) first.(i)))
         runs)
  in
  let quality = Array.to_list verdict |> List.concat_map snd in
  let r =
    {
      setup_s;
      latencies = List.map (fun (_, _, _, w) -> w) runs;
      wall = wall_total;
      attempted = List.length runs;
      failed;
      peak_rss_mb;
      quality;
    }
  in
  if not o.traced then (r, end_to_end r)
  else begin
    let cli_startup_ms = 1e3 *. quantile (List.init 21 (fun _ -> startup ())) 0.5 in
    let in_process rp (i, _, _, _) =
      Replay.cli rp jobs_arr.(i) ~file:(file jobs_arr.(i).Gen.circuit)
    in
    let plain = Replay.create ~jobs () and rp = Replay.create ~jobs () in
    let results, pass =
      paired ~untraced:(in_process plain) ~traced:(in_process rp) runs
    in
    write_spans o pass.spans;
    print_end_to_end r;
    ( r,
      per_layer
        {
          pass;
          replay = rp.Replay.counters;
          requests = List.length runs;
          stats = None;
          lines_overhead_us = 0.;
          http_overhead_us = 0.;
          cli_startup_ms;
          cli_overhead_ms =
            1e3
            *. mean (List.map2 (fun (_, _, _, w) t -> w -. t) runs (untraced_times results));
        } )
  end

(* ---- warm_serve ------------------------------------------------------ *)

let window = 4
let slice = 0.5

type sent = {
  line : string;
  expect : int option;  (** key-set entry for a repeat, None when fresh *)
  http : bool;
  latency : float;
  reply : string option;  (** kept for fresh keys only *)
}

let warm_serve o dir =
  let keyset = Gen.warm_keyset ~seed:o.seed in
  let journal = Filename.concat dir "journal" in
  let log = Filename.concat dir "daemon.log" in
  let args =
    [ "--workers"; "0"; "--jobs"; string_of_int jobs; "--journal"; journal ]
  in
  (* A first daemon answers the key set once; its replies are the cold
     replies every later hit must repeat, and its journal warms the
     timed daemon. *)
  let d0 = Proc.launch ~exe:o.exe ~args ~log in
  let cold = Array.map (Proc.request d0) keyset in
  Proc.stop d0;
  progress "key set answered cold (%d keys)" (Array.length keyset);
  let cold_errors = Array.fold_left (fun n r -> if Check.is_ok r then n else n + 1) 0 cold in
  let snapshot = Filename.concat dir "journal.snapshot" in
  copy_file journal snapshot;
  let d, setup_s = setup_daemon o ~times:9 ~args ~log in
  progress "set up";
  let before = stats d in
  let a = d.Proc.conn in
  let b = Proc.connect ~port:d.Proc.port ~alive:(fun () -> true) in
  let sa = Gen.warm_stream ~seed:o.seed ~conn:0 keyset
  and sb = Gen.warm_stream ~seed:o.seed ~conn:1 keyset in
  let next s =
    match Gen.warm_next s with
    | `Repeat k -> (keyset.(k), Some k)
    | `Fresh line -> (line, None)
  in
  let records = ref [] and failed = ref 0 and lost = ref 0 in
  let record ~http (line, expect) t_sent reply =
    let latency = now () -. t_sent in
    Option.iter
      (fun k -> failed := !failed + Check.reply_failure ~expected:cold.(k) (Some reply))
      expect;
    records :=
      { line; expect; http; latency; reply = (if expect = None then Some reply else None) }
      :: !records
  in
  let inflight_a = Queue.create () and inflight_b = ref None in
  let deadline = ref 0. and t_last = ref 0. in
  let open_a = ref true and open_b = ref true in
  let issue () =
    if now () < !deadline then begin
      if !open_a && Queue.is_empty inflight_a then begin
        let reqs = List.init window (fun _ -> next sa) in
        let t = now () in
        Proc.send a (String.concat "" (List.map (fun (l, _) -> l ^ "\n") reqs));
        List.iter (fun r -> Queue.push (r, t) inflight_a) reqs
      end;
      if !open_b && !inflight_b = None then begin
        let r = next sb in
        let t = now () in
        Proc.send b (Proc.http_post (fst r));
        inflight_b := Some (r, t)
      end
    end
  in
  let rec loop () =
    issue ();
    if not (Queue.is_empty inflight_a && !inflight_b = None) then begin
      let fds =
        (if Queue.is_empty inflight_a then [] else [ a.Proc.fd ])
        @ if !inflight_b = None then [] else [ b.Proc.fd ]
      in
      match Proc.retry (fun () -> Unix.select fds [] [] 30.) with
      | [], _, _ ->
        prerr_endline "perfbench: no reply for 30 s";
        lost := !lost + Queue.length inflight_a + if !inflight_b = None then 0 else 1
      | ready, _, _ ->
        if List.mem a.Proc.fd ready then begin
          if not (Proc.fill a) then begin
            open_a := false;
            lost := !lost + Queue.length inflight_a;
            Queue.clear inflight_a
          end;
          let rec drain () =
            if not (Queue.is_empty inflight_a) then
              match Proc.take_line a with
              | Some reply ->
                let r, t = Queue.pop inflight_a in
                record ~http:false r t reply;
                t_last := now ();
                drain ()
              | None -> ()
          in
          drain ()
        end;
        if List.mem b.Proc.fd ready then begin
          if not (Proc.fill b) then begin
            open_b := false;
            if !inflight_b <> None then incr lost;
            inflight_b := None
          end;
          match (!inflight_b, Proc.take_http b) with
          | Some (r, t), Some reply ->
            inflight_b := None;
            record ~http:true r t reply;
            t_last := now ()
          | _ -> ()
        end;
        loop ()
    end
  in
  (* The timed phase runs in half-second slices with 0.75 s pauses
     between them, so it spans 2.5 times its length of wall time and
     averages more of the machine's speed changes. *)
  let wall = ref 0. in
  while !wall < o.seconds && !open_a && !open_b do
    let t_start = now () in
    deadline := t_start +. Float.min slice (o.seconds -. !wall);
    t_last := t_start;
    loop ();
    wall := !wall +. (!t_last -. t_start);
    Unix.sleepf (1.5 *. slice)
  done;
  progress "timed phase done";
  let wall = !wall in
  let records = List.rev !records in
  let after = stats d in
  let peak_rss_mb = Proc.peak_rss_mb d.Proc.pid in
  Proc.close_conn b;
  Proc.stop d;
  (* Fresh keys: byte-for-byte against the in-process replay. *)
  let check_fresh () =
    let rp = Replay.create ~jobs () in
    List.fold_left
      (fun n s ->
        if s.expect <> None then n
        else n + Check.reply_failure ~expected:(Replay.handle rp s.line) s.reply)
      0 records
  in
  let quality =
    Array.to_list cold
    |> List.concat_map (fun reply ->
           Option.value ~default:[]
             (Option.bind (Result.to_option (Json.parse reply)) Check.static_intervals))
  in
  let r =
    {
      setup_s;
      latencies = List.map (fun s -> s.latency) records;
      wall;
      attempted = List.length records + !lost + Array.length cold;
      failed = !failed + !lost + cold_errors + check_fresh ();
      peak_rss_mb;
      quality;
    }
  in
  if not o.traced then (r, end_to_end r)
  else begin
    let lines = List.map (fun s -> s.line) records in
    (* Untraced: the daemon's own handler, in process; both sides warm
       from their own copy of the journal the timed daemon started from. *)
    let copy name =
      let path = Filename.concat dir name in
      copy_file snapshot path;
      path
    in
    let svc =
      Nano_service.Service.create ~config:(service_config ~journal:(copy "journal.a") ()) ()
    in
    let rp = traced_setup (fun () -> Replay.create ~jobs ~journal:(copy "journal.b") ()) in
    let results, pass =
      paired ~untraced:(Nano_service.Service.handle_line svc) ~traced:(Replay.handle rp) lines
    in
    Nano_service.Service.close svc;
    Replay.close rp;
    write_spans o pass.spans;
    let overhead http =
      1e6
      *. mean
           (List.concat
              (List.map2
                 (fun s t -> if s.http = http then [ s.latency -. t ] else [])
                 records (untraced_times results)))
    in
    print_end_to_end r;
    ( r,
      per_layer
        {
          pass;
          replay = rp.Replay.counters;
          requests = List.length lines;
          stats = Some (before, after);
          lines_overhead_us = overhead false;
          http_overhead_us = overhead true;
          cli_startup_ms = 0.;
          cli_overhead_ms = 0.;
        } )
  end

let () =
  let o = parse_args () in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Exit through at_exit, which stops the daemon and removes scratch
     files, when interrupted too. *)
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  let dir = work_dir () in
  print_stamp o;
  let r, metrics =
    match o.workload with
    | "explore" -> explore o dir
    | "static_cli" -> static_cli o dir
    | _ -> warm_serve o dir
  in
  print_result ~attempted:r.attempted ~failed:r.failed metrics
