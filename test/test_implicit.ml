(* Implicit-vs-materialized equivalence: every regular generator must
   describe byte-for-byte the same CDAG as its materialized namesake —
   same vertex count, edges, degrees, tags, labels and deterministic
   topological order — at several sizes.  The frozen namesakes are
   materialized from the implicit form, so the equivalence cases also
   pin both to golden/generators.txt: one line per spec,
   "SPEC n_vertices n_edges md5(Serialize.to_string g)", recorded from
   the loop-built generators the derived ones replaced. *)

module Cdag = Dmc_cdag.Cdag
module Implicit = Dmc_cdag.Implicit
module Topo = Dmc_cdag.Topo
module Subgraph = Dmc_cdag.Subgraph
module Shapes = Dmc_gen.Shapes
module Fft = Dmc_gen.Fft
module Linalg = Dmc_gen.Linalg
module Stencil = Dmc_gen.Stencil
module Implicit_gen = Dmc_gen.Implicit_gen
module Workload = Dmc_gen.Workload
module Bitset = Dmc_util.Bitset
module Reference = Dmc_testlib.Reference

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let sorted_collect iter v =
  let out = ref [] in
  iter v (fun w -> out := w :: !out);
  List.rev !out

(* The full equivalence predicate: same n, same succ/pred rows (order
   included), same tagging, same labels, same deterministic topo
   order. *)
let assert_equiv name (imp : Implicit.t) (g : Cdag.t) =
  check (name ^ ": n_vertices") (Cdag.n_vertices g) imp.Implicit.n_vertices;
  check (name ^ ": n_edges") (Cdag.n_edges g) (Implicit.n_edges imp);
  for v = 0 to Cdag.n_vertices g - 1 do
    let fail what = Alcotest.failf "%s: vertex %d: %s differ" name v what in
    if sorted_collect imp.Implicit.iter_succ v <> Cdag.succ_list g v then
      fail "successors";
    if sorted_collect imp.Implicit.iter_pred v <> Cdag.pred_list g v then
      fail "predecessors";
    if imp.Implicit.is_input v <> Cdag.is_input g v then fail "input tags";
    if imp.Implicit.is_output v <> Cdag.is_output g v then fail "output tags";
    if imp.Implicit.label v <> Cdag.label g v then fail "labels"
  done;
  (* materializing the implicit graph and wrapping the materialized one
     both round-trip *)
  let m = Implicit.materialize imp in
  check (name ^ ": materialized edges") (Cdag.n_edges g) (Cdag.n_edges m);
  if Topo.order m <> Topo.order g then
    Alcotest.failf "%s: topological orders differ" name;
  check_bool (name ^ ": id-monotone") true (Implicit.check_monotone imp)

(* spec -> its golden line *)
let golden =
  lazy
    (let tbl = Hashtbl.create 32 in
     In_channel.with_open_bin (Filename.concat "golden" "generators.txt")
       In_channel.input_all
     |> String.split_on_char '\n'
     |> List.iter (fun line ->
            match String.index_opt line ' ' with
            | Some i -> Hashtbl.replace tbl (String.sub line 0 i) line
            | None -> ());
     tbl)

let fingerprint spec g =
  Printf.sprintf "%s %d %d %s" spec (Cdag.n_vertices g) (Cdag.n_edges g)
    (Digest.to_hex (Digest.string (Dmc_cdag.Serialize.to_string g)))

(* [imp] and the direct call [g] agree, and both [g] and the registry's
   build of the same spec reproduce the golden line. *)
let check_family name args (imp : Implicit.t) (g : Cdag.t) =
  let spec = name ^ ":" ^ String.concat "," (List.map string_of_int args) in
  assert_equiv spec imp g;
  let want =
    match Hashtbl.find_opt (Lazy.force golden) spec with
    | Some line -> line
    | None -> Alcotest.failf "%s: no golden line" spec
  in
  Alcotest.(check string) (spec ^ ": direct call") want (fingerprint spec g);
  match Workload.build name args with
  | Ok built ->
      Alcotest.(check string) (spec ^ ": Workload.build") want
        (fingerprint spec built)
  | Error e -> Alcotest.fail e

let test_chain () =
  List.iter
    (fun n -> check_family "chain" [ n ] (Implicit_gen.chain n) (Shapes.chain n))
    [ 1; 7; 64 ]

let test_tree () =
  List.iter
    (fun n ->
      check_family "tree" [ n ] (Implicit_gen.reduction_tree n)
        (Shapes.reduction_tree n))
    [ 1; 2; 5; 13; 64; 100 ]

let test_diamond () =
  List.iter
    (fun (r, c) ->
      check_family "diamond" [ r; c ]
        (Implicit_gen.diamond ~rows:r ~cols:c)
        (Shapes.diamond ~rows:r ~cols:c))
    [ (1, 1); (3, 5); (8, 8); (1, 9) ]

let test_fft () =
  List.iter
    (fun k -> check_family "fft" [ k ] (Implicit_gen.butterfly k) (Fft.butterfly k))
    [ 0; 1; 3; 6 ]

let test_matmul () =
  List.iter
    (fun n -> check_family "matmul" [ n ] (Implicit_gen.matmul n) (Linalg.matmul n))
    [ 1; 2; 4; 7 ]

let test_jacobi () =
  List.iter
    (fun (n, t) ->
      check_family "jacobi1d" [ n; t ]
        (Implicit_gen.jacobi_1d ~n ~steps:t)
        (Stencil.jacobi_1d ~n ~steps:t).Stencil.graph)
    [ (1, 1); (9, 3); (32, 8) ];
  List.iter
    (fun (n, t) ->
      check_family "jacobi2d" [ n; t ]
        (Implicit_gen.jacobi_2d ~n ~steps:t)
        (Stencil.jacobi_2d ~n ~steps:t ()).Stencil.graph)
    [ (3, 2); (6, 3) ];
  List.iter
    (fun (n, t) ->
      check_family "jacobi3d" [ n; t ]
        (Implicit_gen.jacobi_3d ~n ~steps:t)
        (Stencil.jacobi_3d ~n ~steps:t).Stencil.graph)
    [ (2, 2); (4, 2) ]

(* of_cdag on an irregular graph round-trips through materialize *)
let test_of_cdag_roundtrip () =
  let g = Linalg.cholesky 5 in
  let imp = Implicit.of_cdag g in
  assert_equiv "of_cdag(cholesky:5)" imp g

(* windows: Theorem-2 tagging and edge discovery without global scans *)
let test_window () =
  let imp = Implicit_gen.jacobi_1d ~n:16 ~steps:4 in
  let g = (Stencil.jacobi_1d ~n:16 ~steps:4).Stencil.graph in
  let part = Implicit.window imp ~lo:16 ~hi:48 in
  let ref_part =
    let set = Dmc_util.Bitset.create (Cdag.n_vertices g) in
    for i = 16 to 47 do Dmc_util.Bitset.add set i done;
    Subgraph.induced g set
  in
  check "window size" (Cdag.n_vertices ref_part.Subgraph.graph)
    (Cdag.n_vertices part.Subgraph.graph);
  check "window edges" (Cdag.n_edges ref_part.Subgraph.graph)
    (Cdag.n_edges part.Subgraph.graph);
  (* same parent ids in the same order *)
  check_bool "window to_parent" true
    (part.Subgraph.to_parent = ref_part.Subgraph.to_parent);
  (* full-range window reproduces the whole graph *)
  let whole = Implicit.window imp ~lo:0 ~hi:imp.Implicit.n_vertices in
  check "whole-window edges" (Cdag.n_edges g)
    (Cdag.n_edges whole.Subgraph.graph)

(* Every family, including box and star stencils over a size-1 axis. *)
let families =
  [
    ("chain:20", Implicit_gen.chain 20);
    ("tree:13", Implicit_gen.reduction_tree 13);
    ("diamond:5,6", Implicit_gen.diamond ~rows:5 ~cols:6);
    ("fft:4", Implicit_gen.butterfly 4);
    ("matmul:3", Implicit_gen.matmul 3);
    ("jacobi1d:12,3", Implicit_gen.jacobi_1d ~n:12 ~steps:3);
    ("jacobi2d:5,3", Implicit_gen.jacobi_2d ~n:5 ~steps:3);
    ("jacobi3d:3,2", Implicit_gen.jacobi_3d ~n:3 ~steps:2);
    ("jacobi-star:4x4,2", Implicit_gen.jacobi ~shape:Stencil.Star ~dims:[ 4; 4 ] ~steps:2 ());
    ("jacobi-box:3x1x4,2", Implicit_gen.jacobi ~shape:Stencil.Box ~dims:[ 3; 1; 4 ] ~steps:2 ());
  ]

let expect_same what = function
  | None -> ()
  | Some d -> Alcotest.failf "%s: %s" what d

let range_set n lo hi =
  let set = Bitset.create n in
  for v = lo to hi - 1 do Bitset.add set v done;
  set

(* Windows straddling the last tagged input, straddling the first
   tagged output, empty, and whole, against the induced sub-CDAG of
   the materialized graph and against the hash-table reference. *)
let test_window_equals_induced () =
  List.iter
    (fun (name, (imp : Implicit.t)) ->
      let n = imp.n_vertices in
      let m = Implicit.materialize imp in
      expect_same (name ^ ": materialize") (Reference.graph_diff m (Reference.materialize imp));
      let last_input = ref (-1) and first_output = ref n in
      for v = n - 1 downto 0 do
        if imp.is_input v && !last_input < 0 then last_input := v;
        if imp.is_output v then first_output := v
      done;
      let clamp lo hi = (max 0 lo, min n hi) in
      let ranges =
        [
          clamp (!last_input - 2) (!last_input + 3);
          clamp (!first_output - 3) (!first_output + 2);
          (n / 2, n / 2);
          (0, n);
        ]
      in
      List.iter
        (fun (lo, hi) ->
          let what = Printf.sprintf "%s [%d, %d)" name lo hi in
          let w = Implicit.window imp ~lo ~hi in
          expect_same what
            (Reference.part_diff ~parent_n:n w (Subgraph.induced m (range_set n lo hi)));
          expect_same (what ^ " vs reference")
            (Reference.part_diff ~parent_n:n w
               (Reference.induced_ids imp (Array.init (hi - lo) (fun i -> lo + i)))))
        ranges)
    families

(* window_of_set reads its list as a set: a repeated id is one vertex. *)
let test_window_of_set_repeats () =
  let imp = Implicit_gen.chain 8 in
  let part = Implicit.window_of_set imp [ 3; 4; 4 ] in
  let once = Implicit.window_of_set imp [ 3; 4 ] in
  Alcotest.(check (array int)) "to_parent" [| 3; 4 |] part.Subgraph.to_parent;
  Alcotest.(check string) "same bytes as [3; 4]"
    (Dmc_cdag.Serialize.to_string once.Subgraph.graph)
    (Dmc_cdag.Serialize.to_string part.Subgraph.graph);
  check "one edge, no isolated copy" 1 (Cdag.n_edges part.Subgraph.graph);
  List.iter
    (fun (name, (imp : Implicit.t)) ->
      let n = imp.n_vertices in
      let rng = Dmc_util.Rng.create n in
      let vs = List.init 12 (fun _ -> Dmc_util.Rng.int rng n) in
      let ids = Array.of_list (List.sort_uniq compare vs) in
      expect_same (name ^ ": window_of_set")
        (Reference.part_diff ~parent_n:n
           (Implicit.window_of_set imp (vs @ List.rev vs))
           (Reference.induced_ids imp ids)))
    families

(* Rows that arrive descending and with duplicates are normalized like
   the Builder does; a self-loop or a cycle is still rejected, and an
   out-of-range successor still fails materialize but is outside every
   window. *)
let test_irregular_rows () =
  let base =
    {
      Implicit.n_vertices = 6;
      iter_succ =
        (fun v f ->
          for w = 5 downto v + 1 do
            if (v + w) mod 2 = 1 then begin
              f w;
              f w
            end
          done);
      iter_pred = (fun _ _ -> ());
      is_input = (fun v -> v < 2);
      is_output = (fun v -> v = 5);
      label = (fun v -> if v = 3 then "" else Printf.sprintf "m%d" v);
    }
  in
  expect_same "materialize"
    (Reference.graph_diff (Implicit.materialize base) (Reference.materialize base));
  List.iter
    (fun (lo, hi) ->
      expect_same
        (Printf.sprintf "window [%d, %d)" lo hi)
        (Reference.part_diff ~parent_n:6 (Implicit.window base ~lo ~hi)
           (Reference.induced_ids base (Array.init (hi - lo) (fun i -> lo + i)))))
    [ (0, 6); (1, 5); (2, 3) ];
  let raises what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" what
  in
  let self_loop = { base with iter_succ = (fun v f -> f v) } in
  raises "self-loop window" (fun () -> Implicit.window self_loop ~lo:1 ~hi:3);
  raises "self-loop materialize" (fun () -> Implicit.materialize self_loop);
  let cycle = { base with iter_succ = (fun v f -> f (v lxor 1)) } in
  raises "cycle window" (fun () -> Implicit.window cycle ~lo:2 ~hi:4);
  raises "cycle materialize" (fun () -> Implicit.materialize cycle);
  let stray = { base with iter_succ = (fun v f -> f (v + 7)) } in
  raises "out-of-range materialize" (fun () -> Implicit.materialize stray);
  raises "reference agrees" (fun () -> Reference.materialize stray);
  expect_same "out-of-range successor is outside the window"
    (Reference.part_diff ~parent_n:6 (Implicit.window stray ~lo:0 ~hi:6)
       (Reference.induced_ids stray (Array.init 6 Fun.id)))

(* huge instances: construction and local adjacency stay O(1)-ish *)
let test_huge_local_access () =
  let imp = Implicit_gen.jacobi_1d ~n:1_000_000_000 ~steps:8 in
  check "huge n" 9_000_000_000 imp.Implicit.n_vertices;
  let succs = sorted_collect imp.Implicit.iter_succ 500_000_000 in
  check "huge succ count" 3 (List.length succs);
  let fft = Implicit_gen.butterfly 30 in
  check "huge fft n" (31 * (1 lsl 30)) fft.Implicit.n_vertices;
  let preds = sorted_collect fft.Implicit.iter_pred (5 * (1 lsl 30)) in
  check "huge fft pred count" 2 (List.length preds)

let test_registry () =
  (* spec parsing with trailing defaults *)
  (match Workload.parse_implicit "jacobi1d:100" with
  | Ok imp -> check "default T=8" (9 * 100) imp.Implicit.n_vertices
  | Error e -> Alcotest.fail e);
  (match Workload.parse_implicit "jacobi1d:100,3" with
  | Ok imp -> check "explicit T" (4 * 100) imp.Implicit.n_vertices
  | Error e -> Alcotest.fail e);
  check_bool "arity error" true
    (match Workload.parse_implicit "diamond:4" with
    | Error _ -> true
    | Ok _ -> false);
  check_bool "unknown name" true
    (match Workload.parse_implicit "nosuch:4" with
    | Error _ -> true
    | Ok _ -> false);
  (* every implicit entry with a materialized namesake agrees on a
     small instance *)
  let small = [ ("chain", [ 12 ]); ("tree", [ 12 ]); ("diamond", [ 4; 6 ]);
                ("fft", [ 3 ]); ("matmul", [ 3 ]); ("jacobi1d", [ 8; 2 ]);
                ("jacobi2d", [ 4; 2 ]); ("jacobi3d", [ 3; 2 ]) ] in
  List.iter
    (fun (name, args) ->
      match (Workload.build_implicit name args, Workload.build name args) with
      | Ok imp, Ok g -> assert_equiv ("registry " ^ name) imp g
      | _ -> Alcotest.failf "registry build failed for %s" name)
    small

let () =
  Alcotest.run "implicit"
    [
      ( "equivalence",
        [
          Alcotest.test_case "chain" `Quick test_chain;
          Alcotest.test_case "tree" `Quick test_tree;
          Alcotest.test_case "diamond" `Quick test_diamond;
          Alcotest.test_case "fft" `Quick test_fft;
          Alcotest.test_case "matmul" `Quick test_matmul;
          Alcotest.test_case "jacobi" `Quick test_jacobi;
          Alcotest.test_case "of_cdag roundtrip" `Quick test_of_cdag_roundtrip;
        ] );
      ( "windows",
        [
          Alcotest.test_case "window" `Quick test_window;
          Alcotest.test_case "window = induced, every family" `Quick test_window_equals_induced;
          Alcotest.test_case "window_of_set repeats" `Quick test_window_of_set_repeats;
          Alcotest.test_case "irregular rows" `Quick test_irregular_rows;
          Alcotest.test_case "huge local access" `Quick test_huge_local_access;
        ] );
      ( "registry",
        [ Alcotest.test_case "registry" `Quick test_registry ] );
    ]
