module J = Dmc_util.Json
module Table = Dmc_util.Table
module Bounds = Dmc_core.Bounds
module Mp_bounds = Dmc_core.Mp_bounds
module Engine_job = Dmc_core.Engine_job
module Workload = Dmc_gen.Workload

type row = { workload : string; s : int; p : int; engine : string }

type t = {
  specs : string list;
  sizes : int list;
  seeds : int list;
  ss : int list;
  ps : int list;
  engines : string list;
  tmo : float option;
  budget : int option;
  grid_rows : row list;
  graphs : (string, Dmc_cdag.Cdag.t) Hashtbl.t;
  base_jobs : (string, Engine_job.t) Hashtbl.t;
      (* one job per workload; its rows share the serialized graph *)
}

let rows t = t.grid_rows
let timeout t = t.tmo
let node_budget t = t.budget

(* ------------------------------------------------------------------ *)
(* Template expansion                                                  *)

let contains s sub =
  let sl = String.length s and bl = String.length sub in
  let rec go i = i + bl <= sl && (String.sub s i bl = sub || go (i + 1)) in
  go 0

let replace_all s ~sub ~by =
  let sl = String.length s and bl = String.length sub in
  let buf = Buffer.create sl in
  let i = ref 0 in
  while !i <= sl - bl do
    if String.sub s !i bl = sub then begin
      Buffer.add_string buf by;
      i := !i + bl
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.add_substring buf s !i (sl - !i);
  Buffer.contents buf

let expand_template ~sizes ~seeds spec =
  let with_n =
    if contains spec "{n}" then
      List.map (fun n -> replace_all spec ~sub:"{n}" ~by:(string_of_int n)) sizes
    else [ spec ]
  in
  List.concat_map
    (fun sp ->
      if contains sp "{seed}" then
        List.map
          (fun sd -> replace_all sp ~sub:"{seed}" ~by:(string_of_int sd))
          seeds
      else [ sp ])
    with_n

let make ~specs ?(sizes = []) ?(seeds = []) ~ss ?(ps = [ 1 ]) ?engines ?timeout
    ?node_budget () =
  let engines =
    match engines with
    | Some es -> es
    | None -> List.map fst Bounds.governed_engines
  in
  let known = List.map fst Bounds.governed_engines @ Mp_bounds.engine_names in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if specs = [] then err "sweep: no workload specs"
  else if ss = [] then err "sweep: no S values"
  else if List.exists (fun s -> s < 1) ss then err "sweep: S values must be >= 1"
  else if ps = [] then err "sweep: no p values"
  else if List.exists (fun q -> q < 1) ps then err "sweep: p values must be >= 1"
  else if engines = [] then err "sweep: no engines"
  else if
    (* The same two-way check as {n}/{seed}: a p axis that no selected
       engine reads would silently multiply the grid with duplicate
       rows. *)
    ps <> [ 1 ] && not (List.exists Mp_bounds.is_engine engines)
  then
    err
      "sweep: p values given but no selected engine is p-sensitive (pick \
       from: %s)"
      (String.concat ", " Mp_bounds.engine_names)
  else
    match List.find_opt (fun e -> not (List.mem e known)) engines with
    | Some e ->
        err "sweep: unknown engine %S (known: %s)" e (String.concat ", " known)
    | None -> (
        let uses_n = List.exists (fun sp -> contains sp "{n}") specs in
        let uses_seed = List.exists (fun sp -> contains sp "{seed}") specs in
        if uses_n && sizes = [] then
          err "sweep: a spec uses {n} but no sizes were given"
        else if uses_seed && seeds = [] then
          err "sweep: a spec uses {seed} but no seeds were given"
        else if (not uses_n) && sizes <> [] then
          err "sweep: sizes given but no spec uses {n}"
        else if (not uses_seed) && seeds <> [] then
          err "sweep: seeds given but no spec uses {seed}"
        else
          let concrete =
            List.concat_map (expand_template ~sizes ~seeds) specs
          in
          (* Resolve without building: a grid can reference hundreds
             of large workloads, and [make] must reject typos without
             paying for a single vertex. *)
          match
            List.find_map
              (fun sp ->
                match Workload.resolve sp with
                | Error e -> Some e
                | Ok _ -> None)
              concrete
          with
          | Some e -> Error ("sweep: " ^ e)
          | None ->
              let grid_rows =
                List.concat_map
                  (fun wl ->
                    List.concat_map
                      (fun s ->
                        List.concat_map
                          (fun q ->
                            List.map
                              (fun engine ->
                                { workload = wl; s; p = q; engine })
                              engines)
                          ps)
                      ss)
                  concrete
              in
              Ok
                {
                  specs;
                  sizes;
                  seeds;
                  ss;
                  ps;
                  engines;
                  tmo = timeout;
                  budget = node_budget;
                  grid_rows;
                  graphs = Hashtbl.create 16;
                  base_jobs = Hashtbl.create 16;
                })

let graph t workload =
  match Hashtbl.find_opt t.graphs workload with
  | Some g -> Ok g
  | None ->
      Result.map
        (fun g ->
          Hashtbl.replace t.graphs workload g;
          g)
        (Workload.parse workload)

(* Serializing a graph costs more than most rows' engine work, so each
   workload's text is made once and shared by all of its rows. *)
let job t row =
  let base =
    match Hashtbl.find_opt t.base_jobs row.workload with
    | Some j -> Ok j
    | None ->
        Result.map
          (fun g ->
            let j =
              Engine_job.make ?timeout:t.tmo ?node_budget:t.budget g ~s:row.s
                ~engine:row.engine
            in
            Hashtbl.replace t.base_jobs row.workload j;
            j)
          (graph t row.workload)
  in
  Result.map
    (fun j -> { j with Engine_job.engine = row.engine; s = row.s; p = row.p })
    base

let degraded t row ~failure =
  match graph t row.workload with
  | Error e -> Error e
  | Ok g ->
      let degraded =
        match List.assoc_opt row.engine Bounds.governed_engines with
        | Some kind ->
            Bounds.degraded_row g ~s:row.s ~engine:row.engine ~kind ~failure
              ~elapsed:0.
        | None ->
            (* [make] validated the name, so it is a {!Mp_bounds} engine. *)
            Mp_bounds.degraded_row g ~p:row.p ~s:row.s ~engine:row.engine
              ~failure ~elapsed:0.
      in
      Ok (Bounds.row_to_json degraded)

(* ------------------------------------------------------------------ *)
(* Axis syntax                                                         *)

let parse_int_list s =
  let items = String.split_on_char ',' s |> List.map String.trim in
  let parse_item it =
    match int_of_string_opt it with
    | Some n -> Ok [ n ]
    | None -> (
        match String.index_opt it '.' with
        | Some i
          when i + 1 < String.length it
               && it.[i + 1] = '.'
               && i > 0 ->
            let lo = String.sub it 0 i in
            let hi = String.sub it (i + 2) (String.length it - i - 2) in
            (match (int_of_string_opt lo, int_of_string_opt hi) with
            | Some lo, Some hi when lo <= hi ->
                Ok (List.init (hi - lo + 1) (fun k -> lo + k))
            | Some _, Some _ ->
                Error (Printf.sprintf "range %S: lower bound above upper" it)
            | _ -> Error (Printf.sprintf "bad range %S" it))
        | _ -> Error (Printf.sprintf "bad integer %S" it))
  in
  let rec go acc = function
    | [] -> Ok (List.concat (List.rev acc))
    | it :: rest -> (
        match parse_item it with
        | Ok ns -> go (ns :: acc) rest
        | Error e -> Error e)
  in
  if s = "" then Error "empty integer list" else go [] items

(* ------------------------------------------------------------------ *)
(* Checkpoint                                                          *)

let kind_tag = "dmc-sweep"

(* v2 added the processor axis ("ps" in the grid signature, a "p"
   column in rows); v1 checkpoints are refused with a version message
   rather than a confusing grid mismatch. *)
let version = 2

let signature t =
  let ints ns = J.List (List.map (fun i -> J.Int i) ns) in
  let strs ss = J.List (List.map (fun s -> J.String s) ss) in
  J.Obj
    [
      ("specs", strs t.specs);
      ("sizes", ints t.sizes);
      ("seeds", ints t.seeds);
      ("ss", ints t.ss);
      ("ps", ints t.ps);
      ("engines", strs t.engines);
      ("timeout", match t.tmo with None -> J.Null | Some f -> J.Float f);
      ( "node_budget",
        match t.budget with None -> J.Null | Some i -> J.Int i );
    ]

let checkpoint t ~committed =
  J.Obj
    [
      ("kind", J.String kind_tag);
      ("v", J.Int version);
      ("grid", signature t);
      ("rows", J.List committed);
    ]

let restore t json =
  let str f = Option.bind (J.mem json f) J.as_string in
  match (str "kind", Option.bind (J.mem json "v") J.as_int) with
  | Some k, _ when k <> kind_tag ->
      Error (Printf.sprintf "checkpoint is %S, not a %s" k kind_tag)
  | _, Some v when v <> version ->
      Error (Printf.sprintf "checkpoint v%d, this build speaks v%d" v version)
  | Some _, Some _ -> (
      match (J.mem json "grid", Option.bind (J.mem json "rows") J.as_list) with
      | Some grid, Some payloads ->
          if grid <> signature t then
            Error
              "checkpoint was written by a different grid (specs, axes, \
               engines or budgets differ); refusing to resume"
          else if List.length payloads > List.length t.grid_rows then
            Error "checkpoint has more committed rows than the grid expands to"
          else Ok payloads
      | _ -> Error "checkpoint has no grid/rows fields")
  | _ -> Error ("not a " ^ kind_tag ^ " checkpoint")

(* ------------------------------------------------------------------ *)
(* Host health timeline                                                *)

(* A fleet snapshot the report can render without this library seeing
   dmc_runtime: the driver converts its [Host.t] ledger into these
   neutral records after the run. *)
type host_stat = {
  h_name : string;
  h_remote : bool;  (** command transport (vs. the local fork backend) *)
  h_verdict : string;  (** final health verdict, e.g. ["alive"] *)
  h_dispatched : int;
  h_completed : int;
  h_failures : int;
  h_resharded : int;
  h_quarantines : int;
  h_quarantine_log : (float * float) list;
      (** [(entered, until)] absolute times, newest first; [until] is
          [infinity] for a poisoning *)
}

let host_health_doc ~run_started stats =
  let rel ts =
    if ts = infinity then "inf"
    else Printf.sprintf "+%.1fs" (ts -. run_started)
  in
  let timeline st =
    match List.rev st.h_quarantine_log with
    | [] -> "-"
    | log ->
        String.concat "; "
          (List.map
             (fun (entered, until_) ->
               Printf.sprintf "%s..%s" (rel entered) (rel until_))
             log)
  in
  let table =
    Table.create
      ~headers:
        [ "host"; "kind"; "verdict"; "dispatched"; "completed"; "failures";
          "resharded"; "quarantines"; "quarantine timeline" ]
  in
  Table.set_align table
    [ Table.Left; Table.Left; Table.Left; Table.Right; Table.Right;
      Table.Right; Table.Right; Table.Right; Table.Left ];
  List.iter
    (fun st ->
      Table.add_row table
        [
          st.h_name;
          (if st.h_remote then "command" else "fork");
          st.h_verdict;
          string_of_int st.h_dispatched;
          string_of_int st.h_completed;
          string_of_int st.h_failures;
          string_of_int st.h_resharded;
          string_of_int st.h_quarantines;
          timeline st;
        ])
    stats;
  let quarantined =
    List.length (List.filter (fun st -> st.h_quarantine_log <> []) stats)
  in
  [
    Doc.Section "host health";
    Doc.Facts
      [
        [
          Doc.fact "hosts" (string_of_int (List.length stats));
          Doc.fact "quarantined" (string_of_int quarantined);
        ];
      ];
    Doc.Table table;
  ]

(* ------------------------------------------------------------------ *)
(* Merged report                                                       *)

(* Only value-deterministic row fields may appear: values, rungs and
   failure classes are functions of the job, while elapsed times and
   host placement are functions of the run.  The byte-identity
   contract (any --jobs, any fleet, any transient-failure schedule)
   is exactly the deterministic/nondeterministic field split. *)
let doc t ~results =
  let table =
    Table.create
      ~headers:
        [ "workload"; "s"; "p"; "engine"; "kind"; "value"; "rung"; "status" ]
  in
  Table.set_align table
    [ Table.Left; Table.Right; Table.Right; Table.Left; Table.Left;
      Table.Right; Table.Left; Table.Left ];
  let committed = ref 0 in
  let parsed =
    List.map2
      (fun row payload ->
        match payload with
        | None -> (row, None)
        | Some p -> (
            incr committed;
            match Bounds.row_of_json p with
            | Some b -> (row, Some b)
            | None -> (row, None)))
      t.grid_rows results
  in
  List.iter
    (fun (row, b) ->
      match b with
      | None ->
          Table.add_row table
            [ row.workload; string_of_int row.s; string_of_int row.p;
              row.engine; "-"; "-"; "-"; "not committed" ]
      | Some b ->
          Table.add_row table
            [
              row.workload;
              string_of_int row.s;
              string_of_int row.p;
              row.engine;
              Bounds.kind_to_string b.Bounds.kind;
              (match b.Bounds.value with
              | Some v -> string_of_int v
              | None -> "-");
              b.Bounds.rung;
              Bounds.row_status b;
            ])
    parsed;
  (* Per-(workload, s, p) sandwich: engines are the innermost axis, so
     each group is one contiguous block of the row list. *)
  let groups =
    List.fold_left
      (fun acc ((row, _) as entry) ->
        match acc with
        | (key, members) :: rest when key = (row.workload, row.s, row.p) ->
            (key, entry :: members) :: rest
        | _ -> ((row.workload, row.s, row.p), [ entry ]) :: acc)
      [] parsed
    |> List.rev_map (fun (key, members) -> (key, List.rev members))
  in
  (* Engines only sandwich within their own bounded quantity: the
     governed engines bound sequential RBW I/O at S, mp-comm-* the
     p-processor communication volume, mp-time-* the makespan, and
     pc-io-* the partial-computation I/O — a wavefront LB above a
     pc-io UB (the paper's point) or an mp-comm UB (pooled memory)
     would be a spurious failure, not a bug. *)
  let family engine =
    match engine with
    | "mp-comm-lb" | "mp-comm-ub" -> "mp-comm"
    | "mp-time-lb" | "mp-time-ub" -> "mp-time"
    | "pc-io-lb" | "pc-io-ub" -> "pc-io"
    | _ -> "seq"
  in
  let checks =
    List.concat_map
      (fun ((wl, s, q), members) ->
        List.filter_map
          (fun fam ->
            let values pred =
              List.filter_map
                (fun (row, b) ->
                  match b with
                  | Some b when family row.engine = fam && pred b ->
                      Option.map float_of_int b.Bounds.value
                  | _ -> None)
                members
            in
            let lbs =
              values (fun b ->
                  match b.Bounds.kind with
                  | Bounds.Lower | Bounds.Exact -> true
                  | Bounds.Upper -> false)
            in
            let ubs =
              values (fun b ->
                  match b.Bounds.kind with
                  | Bounds.Upper -> true
                  | Bounds.Exact -> b.Bounds.rung = "exact"
                  | Bounds.Lower -> false)
            in
            match (lbs, ubs) with
            | [], _ | _, [] -> None
            | _ ->
                let lb = List.fold_left Float.max neg_infinity lbs in
                let ub = List.fold_left Float.min infinity ubs in
                let label =
                  Printf.sprintf "lb <= ub for %s s=%d%s%s" wl s
                    (if t.ps = [ 1 ] then ""
                     else Printf.sprintf " p=%d" q)
                    (if fam = "seq" then "" else " [" ^ fam ^ "]")
                in
                Some (Doc.check ~lb ~ub label (lb <= ub)))
          [ "seq"; "mp-comm"; "mp-time"; "pc-io" ])
      groups
  in
  let n_rows = List.length t.grid_rows in
  {
    Doc.name = "sweep";
    blocks =
      [
        Doc.Section "parameter sweep";
        Doc.Facts
          [
            [
              Doc.fact "rows" (string_of_int n_rows);
              Doc.fact "workloads"
                (string_of_int
                   (List.length
                      (List.sort_uniq compare
                         (List.map (fun r -> r.workload) t.grid_rows))));
              Doc.fact "engines" (string_of_int (List.length t.engines));
              Doc.fact "s values" (string_of_int (List.length t.ss));
              Doc.fact "p values" (string_of_int (List.length t.ps));
            ];
          ];
        Doc.Table table;
        Doc.Section "checks";
        Doc.check "all rows committed" (!committed = n_rows);
      ]
      @ checks;
  }
