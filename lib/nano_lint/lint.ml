module Json = Nano_util.Json
module Netlist = Nano_netlist.Netlist
module Blif = Nano_blif.Blif

type options = { max_fanin : int; epsilon : float; delta : float }

let default_options = { max_fanin = 3; epsilon = 0.01; delta = 0.01 }

let pass_ids =
  [
    Blif_front.pass; Blif_front.cycle_pass; "structure"; Cone.pass;
    Const_prop.pass; Fanin_audit.pass; Duplicates.pass; Bound_check.pass;
  ]

type report = {
  model : string;
  digest : string option;
  diagnostics : Diagnostic.t list;
}

let count severity report =
  List.length
    (List.filter (fun d -> d.Diagnostic.severity = severity) report.diagnostics)

let errors = count Diagnostic.Error
let warnings = count Diagnostic.Warning
let infos = count Diagnostic.Info

let netlist_passes options netlist =
  let reachable, cone_diags = Cone.run netlist in
  let values, const_diags = Const_prop.run netlist ~reachable in
  let fanin_diags =
    Fanin_audit.run ~max_fanin:options.max_fanin ~epsilon:options.epsilon
      ~delta:options.delta netlist
  in
  let dup_diags = Duplicates.run netlist ~reachable in
  let bound_diags =
    Bound_check.run ~epsilon:options.epsilon ~delta:options.delta
      ~max_fanin:options.max_fanin netlist ~values
  in
  cone_diags @ const_diags @ fanin_diags @ dup_diags @ bound_diags

let run_netlist ?(options = default_options) ?digest netlist =
  match Netlist.validate netlist with
  | Error msg ->
    {
      model = Netlist.name netlist;
      digest = None;
      diagnostics =
        [
          Diagnostic.make Diagnostic.Error ~pass:"structure"
            ~code:"invalid-netlist" Diagnostic.Whole msg;
        ];
    }
  | Ok () ->
    let digest =
      match digest with
      | Some d -> d
      | None -> Nano_synth.Strash.digest netlist
    in
    {
      model = Netlist.name netlist;
      digest = Some digest;
      diagnostics =
        List.sort Diagnostic.compare (netlist_passes options netlist);
    }

let run_blif_string ?(options = default_options) text =
  match Blif.read text with
  | Error e ->
    {
      model = "";
      digest = None;
      diagnostics =
        [
          Diagnostic.make ~line:e.Blif.line Diagnostic.Error
            ~pass:Blif_front.pass ~code:"parse-error" Diagnostic.Whole
            e.Blif.message;
        ];
    }
  | Ok model ->
    let raw = Blif.raw model in
    let front = Blif_front.run raw in
    let fatal =
      List.exists (fun d -> d.Diagnostic.severity = Diagnostic.Error) front
    in
    if fatal then
      {
        model = raw.Blif.Raw.model;
        digest = None;
        diagnostics = List.sort Diagnostic.compare front;
      }
    else begin
      match Blif.elaborate model with
      | Error e ->
        (* Front-end lints passed yet elaboration failed: surface the
           elaboration error rather than hiding it. *)
        {
          model = raw.Blif.Raw.model;
          digest = None;
          diagnostics =
            List.sort Diagnostic.compare
              (Diagnostic.make ~line:e.Blif.line Diagnostic.Error
                 ~pass:Blif_front.pass ~code:"elaboration-error"
                 Diagnostic.Whole e.Blif.message
              :: front);
        }
      | Ok netlist ->
        {
          model = Netlist.name netlist;
          digest = Some (Nano_synth.Strash.digest netlist);
          diagnostics =
            List.sort Diagnostic.compare
              (front @ netlist_passes options netlist);
        }
    end

let run_blif_file ?options path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> Ok (run_blif_string ?options text)
  | exception Sys_error msg -> Error msg

let report_to_json r =
  Json.Obj
    [
      ("model", Json.String r.model);
      ( "digest",
        match r.digest with Some d -> Json.String d | None -> Json.Null );
      ("errors", Json.Int (errors r));
      ("warnings", Json.Int (warnings r));
      ("infos", Json.Int (infos r));
      ("diagnostics", Json.List (List.map Diagnostic.to_json r.diagnostics));
    ]

let preflight_json r =
  let significant =
    List.filter
      (fun d -> d.Diagnostic.severity <> Diagnostic.Info)
      r.diagnostics
  in
  if significant = [] then None
  else
    Some
      (Json.Obj
         [
           ("errors", Json.Int (errors r));
           ("warnings", Json.Int (warnings r));
           ("diagnostics", Json.List (List.map Diagnostic.to_json significant));
         ])

let pp_report ppf r =
  Format.fprintf ppf "model %s" r.model;
  (match r.digest with
  | Some d -> Format.fprintf ppf " (digest %s)" d
  | None -> ());
  Format.fprintf ppf ": %d error(s), %d warning(s), %d info@." (errors r)
    (warnings r) (infos r);
  List.iter
    (fun d -> Format.fprintf ppf "  %a@." Diagnostic.pp d)
    r.diagnostics
