(* In-memory span recorder for the traced replay.

   A span is one call into a layer: its name, start and end, the span
   that was open when it began, and the request it served. Spans are
   kept in memory while the replay runs and written out once at the
   end, so recording costs one allocation per call. With recording off,
   [span] is a plain call. *)

type span = {
  id : int;
  name : string;
  request : int;
  parent : int;  (** -1 for a request's root span *)
  start : float;
  stop : float;
}

let enabled = ref false
let request = ref 0
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let reset () =
  spans := [];
  stack := [];
  next_id := 0

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let start = Unix.gettimeofday () in
    let finish () =
      let stop = Unix.gettimeofday () in
      stack := List.tl !stack;
      spans := { id; name; request = !request; parent; start; stop } :: !spans
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* Self time: a span's duration minus the part of it its children
   cover. Children run nested on one domain, so they never overlap and
   their durations simply add up. *)
let self_times all =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (Option.value (Hashtbl.find_opt child s.parent) ~default:0.
          +. (s.stop -. s.start)))
    all;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        s.stop -. s.start
        -. Option.value (Hashtbl.find_opt child s.id) ~default:0.
      in
      let busy, calls =
        Option.value (Hashtbl.find_opt by_name s.name) ~default:(0., 0)
      in
      Hashtbl.replace by_name s.name (busy +. self, calls + 1))
    all;
  by_name

let busy table name =
  Option.value (Hashtbl.find_opt table name) ~default:(0., 0)

let write path all =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"request\":%d,\"parent\":%d,\"start\":%.9f,\"end\":%.9f}\n"
        s.id s.name s.request s.parent s.start s.stop)
    (List.rev all);
  close_out oc
