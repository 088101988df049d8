(* Output checks and the bound-quality figures read off the outputs.
   Every check that fails counts one failed request. *)

module Json = Nano_util.Json

(* Byte-for-byte reply comparison: a lost reply ([None]) or any
   difference from the expected line is one failure. *)
let reply_failure ~expected got =
  match got with Some r when String.equal r expected -> 0 | _ -> 1

(* The Agresti–Coull half-width `bench --static-only` widens its
   containment check by: z = 3 around the pinned-seed estimate. *)
let half_width ~vectors x =
  let n = float_of_int vectors in
  let pt = ((x *. n) +. 2.) /. (n +. 4.) in
  3. *. sqrt (pt *. (1. -. pt) /. n)

type interval = { name : string; lo : float; hi : float }

let num = function Json.Float f -> Some f | Json.Int i -> Some (float_of_int i) | _ -> None

let field name json = Option.bind (Json.member name json) num

(* Per-output error intervals of a static report, as printed by
   `nanobound static --format json` or carried in a static reply's
   "result". *)
let static_intervals json =
  let json = Option.value (Json.member "result" json) ~default:json in
  match Option.bind (Json.member "outputs" json) Json.to_list with
  | None -> None
  | Some outputs ->
    let parse o =
      match
        ( Option.bind (Json.member "name" o) Json.to_string_opt,
          field "lo" o,
          field "hi" o )
      with
      | Some name, Some lo, Some hi -> Some { name; lo; hi }
      | _ -> None
    in
    let ivs = List.filter_map parse outputs in
    if List.length ivs = List.length outputs then Some ivs else None

(* Every interval must contain its Monte-Carlo reference, widened by
   the reference's half-width; a missing reference is a failure too. *)
let containment_failures ~vectors ~reference intervals =
  List.length
    (List.filter
       (fun iv ->
         match List.assoc_opt iv.name reference with
         | None -> true
         | Some x ->
           let slack = half_width ~vectors x in
           not (iv.lo -. slack <= x && x <= iv.hi +. slack))
       intervals)

(* The measured any-output error of each analyze row, as an interval:
   the estimate plus and minus its Agresti–Coull half-width. *)
let measured_intervals reply =
  match Json.parse reply with
  | Error _ -> []
  | Ok json ->
    let rows =
      Option.bind (Json.member "result" json) (fun r ->
          Option.bind (Json.member "rows" r) Json.to_list)
    in
    List.filter_map
      (fun row ->
        match (field "measured_delta" row, field "measured_vectors" row) with
        | Some x, Some n ->
          let hw = half_width ~vectors:(int_of_float n) x in
          Some { name = "any"; lo = Float.max 0. (x -. hw); hi = Float.min 1. (x +. hw) }
        | _ -> None)
      (Option.value rows ~default:[])

(* vacuous_outputs and error_bound_width over a set of intervals. *)
let quality intervals =
  let vacuous = List.length (List.filter (fun iv -> iv.hi >= 0.5) intervals) in
  let width =
    match intervals with
    | [] -> nan
    | l ->
      List.fold_left (fun s iv -> s +. (iv.hi -. iv.lo)) 0. l
      /. float_of_int (List.length l)
  in
  (vacuous, width)

let is_ok reply =
  match Json.parse reply with
  | Ok json -> Json.member "ok" json = Some (Json.Bool true)
  | Error _ -> false
