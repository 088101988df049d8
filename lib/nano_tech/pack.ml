module Gate = Nano_netlist.Gate
module Json = Nano_util.Json

type entry = {
  energy_j : float;
  leakage_w : float;
  area_m2 : float;
  delay_s : float;
}

type t = {
  name : string;
  description : string;
  vdd : float;
  wire_cap_f_per_m : float;
  wire_res_ohm_per_m : float;
  clock_energy_j : float;
  fanin_scale : float;
  intrinsic_epsilon : float;
  gates : (Gate.kind * entry) list;
}

let kind_order = Gate.all_logic_kinds

let reference_arity = function
  | Gate.Buf | Gate.Not -> 1
  | Gate.Majority -> 3
  | _ -> 2

let find t kind = List.assoc_opt kind t.gates

let effective_epsilon t epsilon = Float.max epsilon t.intrinsic_epsilon

let scaled t kind ~arity =
  match find t kind with
  | None -> None
  | Some e ->
    let extra = max 0 (arity - reference_arity kind) in
    if extra = 0 || t.fanin_scale = 0. then Some e
    else begin
      let f = 1. +. (t.fanin_scale *. float_of_int extra) in
      Some
        {
          energy_j = e.energy_j *. f;
          leakage_w = e.leakage_w *. f;
          area_m2 = e.area_m2 *. f;
          delay_s = e.delay_s *. f;
        }
    end

let normalize t =
  let gates =
    List.filter_map
      (fun kind ->
        Option.map (fun e -> (kind, e)) (List.assoc_opt kind t.gates))
      kind_order
  in
  { t with gates }

let entry_to_json e =
  Json.Obj
    [
      ("e", Json.Float e.energy_j);
      ("pl", Json.Float e.leakage_w);
      ("a", Json.Float e.area_m2);
      ("t", Json.Float e.delay_s);
    ]

let to_json t =
  let t = normalize t in
  Json.Obj
    [
      ("name", Json.String t.name);
      ("description", Json.String t.description);
      ("vdd", Json.Float t.vdd);
      ( "wire",
        Json.Obj
          [
            ("c_per_m", Json.Float t.wire_cap_f_per_m);
            ("r_per_m", Json.Float t.wire_res_ohm_per_m);
          ] );
      ("clock_energy_j", Json.Float t.clock_energy_j);
      ("fanin_scale", Json.Float t.fanin_scale);
      ("intrinsic_epsilon", Json.Float t.intrinsic_epsilon);
      ( "gates",
        Json.Obj
          (List.map
             (fun (kind, e) -> (Gate.name kind, entry_to_json e))
             t.gates) );
    ]

let digest t = Digest.to_hex (Digest.string (Json.to_string (to_json t)))
