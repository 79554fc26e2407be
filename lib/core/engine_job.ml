module J = Dmc_util.Json

type t = {
  engine : string;
  graph : string;
  s : int;
  p : int;
  timeout : float option;
  node_budget : int option;
  samples : int;
}

let make ?timeout ?node_budget ?(samples = 64) ?(p = 1) g ~s ~engine =
  {
    engine;
    graph = Dmc_cdag.Serialize.to_string g;
    s;
    p;
    timeout;
    node_budget;
    samples;
  }

let to_json job =
  J.Obj
    [
      ("kind", J.String "dmc-engine-job");
      ("engine", J.String job.engine);
      ("graph", J.String job.graph);
      ("s", J.Int job.s);
      ("p", J.Int job.p);
      ("timeout", J.opt (fun t -> J.Float t) job.timeout);
      ("node_budget", J.opt (fun n -> J.Int n) job.node_budget);
      ("samples", J.Int job.samples);
    ]

let of_json json =
  let str field = Option.bind (J.mem json field) J.as_string in
  let int field = Option.bind (J.mem json field) J.as_int in
  match (str "kind", str "engine", str "graph", int "s", int "samples") with
  | Some "dmc-engine-job", Some engine, Some graph, Some s, Some samples ->
      let timeout =
        match J.mem json "timeout" with
        | Some (J.Null) | None -> None
        | Some j -> J.as_float j
      in
      let node_budget =
        match J.mem json "node_budget" with
        | Some J.Null | None -> None
        | Some j -> J.as_int j
      in
      (* Jobs from older checkpoints predate the multi-processor
         engines and are single-processor by construction. *)
      let p = Option.value ~default:1 (int "p") in
      Ok { engine; graph; s; p; timeout; node_budget; samples }
  | _ -> Error "not a dmc-engine-job object"

let run job =
  if Bounds.find job.engine = None then
    Error (Dmc_util.Budget.Invalid_input ("unknown engine: " ^ job.engine))
  else if job.p < 1 then
    Error (Dmc_util.Budget.Invalid_input "p must be positive")
  else if job.s < 1 then
    Error (Dmc_util.Budget.Invalid_input "s must be positive")
  else
    match Dmc_cdag.Serialize.of_string job.graph with
    | Error msg -> Error (Dmc_util.Budget.Invalid_input ("bad graph: " ^ msg))
    | Ok g ->
        Ok
          (Bounds.row_to_json
             (Bounds.row ?timeout:job.timeout ?node_budget:job.node_budget
                ~samples:job.samples ~p:job.p g ~s:job.s job.engine))
