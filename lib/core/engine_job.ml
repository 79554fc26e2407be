module J = Dmc_util.Json
module Cdag = Dmc_cdag.Cdag
module Serialize = Dmc_cdag.Serialize

type t = {
  engine : string;
  graph : string;
  cdag : (Cdag.t, string) result Lazy.t;
  s : int;
  p : int;
  timeout : float option;
  node_budget : int option;
  samples : int;
  record : Wavefront.record option;
}

let make ?timeout ?node_budget ?(samples = 64) ?(p = 1) ?record g ~s ~engine =
  {
    engine;
    graph = Serialize.to_string g;
    cdag = Lazy.from_val (Ok g);
    s;
    p;
    timeout;
    node_budget;
    samples;
    record;
  }

let of_text ?timeout ?node_budget ?(samples = 64) ?(p = 1) graph ~s ~engine =
  {
    engine;
    graph;
    cdag = lazy (Serialize.of_string graph);
    s;
    p;
    timeout;
    node_budget;
    samples;
    record = None;
  }

let to_json job =
  J.Obj
    ([
       ("kind", J.String "dmc-engine-job");
       ("engine", J.String job.engine);
       ("graph", J.String job.graph);
       ("s", J.Int job.s);
       ("p", J.Int job.p);
       ("timeout", J.opt (fun t -> J.Float t) job.timeout);
       ("node_budget", J.opt (fun n -> J.Int n) job.node_budget);
       ("samples", J.Int job.samples);
     ]
    @
    match job.record with
    | None -> []
    | Some r -> [ ("wavefront_record", Wavefront.record_to_json r) ])

let of_json json =
  let str field = Option.bind (J.mem json field) J.as_string in
  let int field = Option.bind (J.mem json field) J.as_int in
  match (str "kind", str "engine", str "graph", int "s", int "samples") with
  | Some "dmc-engine-job", Some engine, Some graph, Some s, Some samples -> (
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
      let job = of_text ?timeout ?node_budget ~samples ~p graph ~s ~engine in
      match J.mem json "wavefront_record" with
      | None -> Ok job
      | Some r ->
          Result.map
            (fun record -> { job with record = Some record })
            (Wavefront.record_of_json r))
  | _ -> Error "not a dmc-engine-job object"

let run job =
  let invalid msg = Error (Dmc_util.Budget.Invalid_input msg) in
  if Bounds.find job.engine = None then invalid ("unknown engine: " ^ job.engine)
  else if job.p < 1 then invalid "p must be positive"
  else if job.s < 1 then invalid "s must be positive"
  else
    match Lazy.force job.cdag with
    | Error msg -> invalid ("bad graph: " ^ msg)
    | Ok g -> (
        match job.record with
        | Some r when not (Wavefront.record_fits r g) ->
            invalid "the wavefront record does not fit the graph"
        | record ->
            Ok
              (Bounds.row_to_json
                 (Bounds.row ?timeout:job.timeout ?node_budget:job.node_budget
                    ~samples:job.samples ?record ~p:job.p g ~s:job.s job.engine)))
