type t = {
  name : string;
  params : string list;
  doc : string;
  build : int list -> Dmc_cdag.Cdag.t;
  defaults : int list;
  implicit : (int list -> Dmc_cdag.Implicit.t) option;
}

(* Builders are only called with an arity-checked argument list. *)
let a1 f = function [ x ] -> f x | _ -> assert false
let a2 f = function [ x; y ] -> f x y | _ -> assert false
let a3 f = function [ x; y; z ] -> f x y z | _ -> assert false

let frozen ~name ~params ~doc build =
  { name; params; doc; build; defaults = []; implicit = None }

let regular ?(defaults = []) ~name ~params ~doc build implicit =
  { name; params; doc; build; defaults; implicit = Some implicit }

(* Registry order is the order the CLI documents the shapes in; keep
   new entries grouped with their family. *)
let all =
  let cube d n = List.init d (fun _ -> n) in
  [
    regular ~name:"chain" ~params:[ "N" ]
      ~doc:"linear chain of N dependent operations" (a1 Shapes.chain)
      (a1 Implicit_gen.chain);
    regular ~name:"tree" ~params:[ "N" ]
      ~doc:"binary reduction tree over N leaves" (a1 Shapes.reduction_tree)
      (a1 Implicit_gen.reduction_tree);
    regular ~name:"diamond" ~params:[ "R"; "C" ]
      ~doc:"R-by-C diamond lattice (fan-out then fan-in)"
      (a2 (fun rows cols -> Shapes.diamond ~rows ~cols))
      (a2 (fun rows cols -> Implicit_gen.diamond ~rows ~cols));
    regular ~name:"fft" ~params:[ "K" ]
      ~doc:"radix-2 FFT butterfly network on 2^K inputs" (a1 Fft.butterfly)
      (a1 Implicit_gen.butterfly);
    frozen ~name:"bitonic" ~params:[ "K" ]
      ~doc:"bitonic sorting network on 2^K inputs" (a1 Fft.bitonic_sort);
    frozen ~name:"pyramid" ~params:[ "H" ] ~doc:"2-D pyramid DAG of height H"
      (a1 Shapes.pyramid);
    frozen ~name:"binomial" ~params:[ "K" ]
      ~doc:"binomial-coefficient DAG of order K" (a1 Shapes.binomial);
    regular ~name:"matmul" ~params:[ "N" ]
      ~doc:"classic N^3 dense matrix-multiply DAG" (a1 Linalg.matmul)
      (a1 Implicit_gen.matmul);
    frozen ~name:"lu" ~params:[ "N" ]
      ~doc:"LU factorization (no pivoting) of an N-by-N matrix"
      (a1 (fun n -> (Linalg.lu_factor n).lu_graph));
    frozen ~name:"cholesky" ~params:[ "N" ]
      ~doc:"Cholesky factorization of an N-by-N matrix" (a1 Linalg.cholesky);
    frozen ~name:"outer" ~params:[ "N" ]
      ~doc:"rank-1 outer product of two N-vectors" (a1 Linalg.outer_product);
    frozen ~name:"dot" ~params:[ "N" ] ~doc:"dot product of two N-vectors"
      (a1 Linalg.dot_product);
    frozen ~name:"composite" ~params:[ "N" ]
      ~doc:"matmul feeding a reduction (Lemma 4 composition)"
      (a1 (fun n -> (Linalg.composite n).graph));
    regular ~defaults:[ 8 ] ~name:"jacobi1d" ~params:[ "N"; "T" ]
      ~doc:"1-D 3-point Jacobi stencil, N points, T time steps"
      (a2 (fun n steps -> (Stencil.jacobi_1d ~n ~steps).graph))
      (a2 (fun n steps -> Implicit_gen.jacobi_1d ~n ~steps));
    regular ~defaults:[ 4 ] ~name:"jacobi2d" ~params:[ "N"; "T" ]
      ~doc:"2-D 9-point Jacobi stencil, N^2 points, T time steps"
      (a2 (fun n steps -> (Stencil.jacobi_2d ~n ~steps ()).graph))
      (a2 (fun n steps -> Implicit_gen.jacobi_2d ~n ~steps));
    regular ~defaults:[ 2 ] ~name:"jacobi3d" ~params:[ "N"; "T" ]
      ~doc:"3-D 7-point Jacobi stencil, N^3 points, T time steps"
      (a2 (fun n steps -> (Stencil.jacobi_3d ~n ~steps).graph))
      (a2 (fun n steps -> Implicit_gen.jacobi_3d ~n ~steps));
    frozen ~name:"spmv" ~params:[ "N"; "D" ]
      ~doc:"sparse matrix-vector product on a D-dim grid of side N"
      (a2 (fun n d -> Solver.spmv ~dims:(cube d n)));
    frozen ~name:"thomas" ~params:[ "N" ]
      ~doc:"Thomas tridiagonal solve of size N"
      (a1 (fun n -> (Solver.thomas ~n).th_graph));
    frozen ~name:"multigrid" ~params:[ "N"; "L"; "C" ]
      ~doc:"multigrid V-cycles: side N, L levels, C cycles"
      (a3 (fun n levels cycles ->
           (Multigrid.v_cycle ~dims:[ n ] ~levels ~cycles ()).graph));
    frozen ~name:"cg" ~params:[ "N"; "D"; "T" ]
      ~doc:"conjugate gradient on a D-dim grid of side N, T iterations"
      (a3 (fun n d t -> (Solver.cg ~dims:(cube d n) ~iters:t).graph));
    frozen ~name:"gmres" ~params:[ "N"; "D"; "M" ]
      ~doc:"GMRES on a D-dim grid of side N, restart length M"
      (a3 (fun n d m -> (Solver.gmres ~dims:(cube d n) ~iters:m).graph));
    frozen ~name:"daggen" ~params:[ "SEED"; "N"; "FAT"; "DENS"; "CCR" ]
      ~doc:
        "daggen-style random task graph: N tasks, FAT/DENS in percent, CCR \
         0-3 level-jump reach"
      (function
      | [ seed; n; fat; dens; ccr ] ->
          Random_dag.daggen (Dmc_util.Rng.create seed) ~n
            ~fat:(float_of_int fat /. 100.0)
            ~density:(float_of_int dens /. 100.0)
            ~ccr
      | _ -> assert false);
    frozen ~name:"layered" ~params:[ "SEED"; "L"; "W" ]
      ~doc:"random layered DAG: L layers of width W, seeded"
      (a3 (fun seed l w ->
           Random_dag.layered (Dmc_util.Rng.create seed) ~layers:l ~width:w
             ~edge_prob:0.4));
  ]

let find name = List.find_opt (fun w -> w.name = name) all

let names = List.map (fun w -> w.name) all

let signature w = w.name ^ ":" ^ String.concat "," w.params

let spec_doc () =
  "Named generator: " ^ String.concat ", " (List.map signature all)

(* -- the one spec language --------------------------------------- *)

(* "name:1,2" -> ("name", [1; 2]) *)
let split spec =
  let name, raw_args =
    match String.index_opt spec ':' with
    | None -> (spec, [])
    | Some i ->
        ( String.sub spec 0 i,
          String.split_on_char ','
            (String.sub spec (i + 1) (String.length spec - i - 1)) )
  in
  let rec ints acc = function
    | [] -> Ok (name, List.rev acc)
    | a :: rest -> (
        match int_of_string_opt a with
        | Some n -> ints (n :: acc) rest
        | None ->
            Error
              (Printf.sprintf
                 "generator '%s': parameter '%s' is not an integer (want %s)"
                 name a
                 (match find name with
                 | Some w -> signature w
                 | None -> "NAME:INT,...")))
  in
  ints [] raw_args

(* The entry for [name] with [args] arity-checked.  In implicit mode
   only entries with an implicit form match, and omitted trailing
   parameters are filled from the entry's [defaults]. *)
let lookup ~implicit name args =
  let known =
    if implicit then List.filter (fun w -> w.implicit <> None) all else all
  in
  let kind = if implicit then "implicit generator" else "generator" in
  match List.find_opt (fun w -> w.name = name) known with
  | None ->
      Error
        (Printf.sprintf "unknown %s '%s'; known %ss: %s" kind name kind
           (String.concat ", " (List.map (fun w -> w.name) known)))
  | Some w ->
      let defaults = if implicit then w.defaults else [] in
      let want = List.length w.params and got = List.length args in
      let ndef = List.length defaults in
      let missing = want - got in
      if missing < 0 || missing > ndef then
        Error
          (Printf.sprintf "generator '%s' expects %s parameter%s (%s), got %d"
             name
             (if ndef = 0 then string_of_int want
              else Printf.sprintf "%d-%d" (want - ndef) want)
             (if want = 1 && ndef = 0 then "" else "s")
             (signature w) got)
      else Ok (w, args @ List.filteri (fun i _ -> i >= ndef - missing) defaults)

let resolve ?(implicit = false) spec =
  Result.bind (split spec) (fun (name, args) -> lookup ~implicit name args)

(* Size checks raise [Invalid_argument]; a spec is user input, so they
   come back as [Error] like every other rejection. *)
let run f args = try Ok (f args) with Invalid_argument msg -> Error msg

let build name args =
  Result.bind (lookup ~implicit:false name args) (fun (w, args) ->
      run w.build args)

let parse spec = Result.bind (split spec) (fun (name, args) -> build name args)

let build_exn name args =
  match build name args with Ok g -> g | Error msg -> failwith msg

let parse_exn spec =
  match parse spec with Ok g -> g | Error msg -> failwith msg

let build_implicit name args =
  Result.bind (lookup ~implicit:true name args) (fun (w, args) ->
      run (Option.get w.implicit) args)

let parse_implicit spec =
  Result.bind (split spec) (fun (name, args) -> build_implicit name args)
