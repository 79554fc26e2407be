(* Tests for the CDAG substrate: builder, topology, reachability,
   validation, subgraphs, serialization. *)

module Cdag = Dmc_cdag.Cdag
module Topo = Dmc_cdag.Topo
module Reach = Dmc_cdag.Reach
module Validate = Dmc_cdag.Validate
module Subgraph = Dmc_cdag.Subgraph
module Serialize = Dmc_cdag.Serialize
module Dot = Dmc_cdag.Dot
module Bitset = Dmc_util.Bitset
module Rng = Dmc_util.Rng
module Random_dag = Dmc_gen.Random_dag
module Reference = Dmc_testlib.Reference

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* a -> b -> d, a -> c -> d *)
let small_diamond () =
  let b = Cdag.Builder.create () in
  let va = Cdag.Builder.add_vertex ~label:"a" b in
  let vb = Cdag.Builder.add_vertex ~label:"b" b in
  let vc = Cdag.Builder.add_vertex ~label:"c" b in
  let vd = Cdag.Builder.add_vertex ~label:"d" b in
  Cdag.Builder.add_edge b va vb;
  Cdag.Builder.add_edge b va vc;
  Cdag.Builder.add_edge b vb vd;
  Cdag.Builder.add_edge b vc vd;
  (Cdag.Builder.freeze b, (va, vb, vc, vd))

(* ------------------------------------------------------------------ *)
(* Builder / structure                                                 *)

let test_builder_basic () =
  let g, (va, vb, vc, vd) = small_diamond () in
  check "vertices" 4 (Cdag.n_vertices g);
  check "edges" 4 (Cdag.n_edges g);
  check "out a" 2 (Cdag.out_degree g va);
  check "in d" 2 (Cdag.in_degree g vd);
  check_bool "edge a->b" true (Cdag.has_edge g va vb);
  check_bool "no edge b->c" false (Cdag.has_edge g vb vc);
  Alcotest.(check (list int)) "succ a" [ vb; vc ] (Cdag.succ_list g va);
  Alcotest.(check (list int)) "pred d" [ vb; vc ] (Cdag.pred_list g vd);
  Alcotest.(check string) "label" "a" (Cdag.label g va);
  (* Hong-Kung default tagging *)
  Alcotest.(check (list int)) "inputs" [ va ] (Cdag.inputs g);
  Alcotest.(check (list int)) "outputs" [ vd ] (Cdag.outputs g);
  check "compute count" 3 (Cdag.n_compute g)

let test_builder_dedup () =
  let b = Cdag.Builder.create () in
  let x = Cdag.Builder.add_vertex b and y = Cdag.Builder.add_vertex b in
  Cdag.Builder.add_edge b x y;
  Cdag.Builder.add_edge b x y;
  Cdag.Builder.add_edge b x y;
  let g = Cdag.Builder.freeze b in
  check "duplicate edges coalesced" 1 (Cdag.n_edges g);
  check "in-degree deduped" 1 (Cdag.in_degree g y)

let test_builder_rejects_cycle () =
  let b = Cdag.Builder.create () in
  let x = Cdag.Builder.add_vertex b and y = Cdag.Builder.add_vertex b in
  Cdag.Builder.add_edge b x y;
  Cdag.Builder.add_edge b y x;
  Alcotest.check_raises "cycle" (Invalid_argument "Cdag: edge relation has a cycle")
    (fun () -> ignore (Cdag.Builder.freeze b))

let test_builder_rejects_self_loop () =
  let b = Cdag.Builder.create () in
  let x = Cdag.Builder.add_vertex b in
  Alcotest.check_raises "self loop" (Invalid_argument "Cdag.Builder.add_edge: self-loop")
    (fun () -> Cdag.Builder.add_edge b x x)

let test_explicit_tagging_and_retag () =
  let b = Cdag.Builder.create () in
  let x = Cdag.Builder.add_vertex b and y = Cdag.Builder.add_vertex b in
  Cdag.Builder.add_edge b x y;
  let g = Cdag.Builder.freeze ~inputs:[] ~outputs:[ x; y ] b in
  check "no inputs" 0 (Cdag.n_inputs g);
  check "two outputs" 2 (Cdag.n_outputs g);
  let g2 = Cdag.retag g ~inputs:[ x ] ~outputs:[] in
  check "retagged inputs" 1 (Cdag.n_inputs g2);
  check "retagged outputs" 0 (Cdag.n_outputs g2);
  check "structure shared" (Cdag.n_edges g) (Cdag.n_edges g2);
  Alcotest.check_raises "retag out of range"
    (Invalid_argument "Cdag.retag: vertex out of range") (fun () ->
      ignore (Cdag.retag g ~inputs:[ 5 ] ~outputs:[]))

let test_sources_sinks () =
  let g, (va, _, _, vd) = small_diamond () in
  Alcotest.(check (list int)) "sources" [ va ] (Cdag.sources g);
  Alcotest.(check (list int)) "sinks" [ vd ] (Cdag.sinks g)

(* ------------------------------------------------------------------ *)
(* Topo                                                                *)

let test_topo_order () =
  let g, _ = small_diamond () in
  let ord = Topo.order g in
  check_bool "is topological" true (Topo.is_order g ord);
  Alcotest.(check (array int)) "deterministic" [| 0; 1; 2; 3 |] ord

let test_topo_rejects_bad_orders () =
  let g, _ = small_diamond () in
  check_bool "reversed" false (Topo.is_order g [| 3; 2; 1; 0 |]);
  check_bool "wrong length" false (Topo.is_order g [| 0; 1; 2 |]);
  check_bool "duplicate" false (Topo.is_order g [| 0; 1; 1; 3 |])

let test_depth_height () =
  let g, (va, vb, vc, vd) = small_diamond () in
  let d = Topo.depth g and h = Topo.height g in
  check "depth a" 0 d.(va);
  check "depth b" 1 d.(vb);
  check "depth d" 2 d.(vd);
  check "height a" 2 h.(va);
  check "height c" 1 h.(vc);
  check "height d" 0 h.(vd);
  check "critical path" 3 (Topo.critical_path g)

let test_layers () =
  let g, (va, vb, vc, vd) = small_diamond () in
  let layers = Topo.layers g in
  check "layer count" 3 (Array.length layers);
  Alcotest.(check (list int)) "layer 0" [ va ] layers.(0);
  Alcotest.(check (list int)) "layer 1" [ vb; vc ] layers.(1);
  Alcotest.(check (list int)) "layer 2" [ vd ] layers.(2)

let prop_topo_on_random =
  QCheck.Test.make ~name:"Kahn order is topological on random DAGs" ~count:60
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Dmc_gen.Random_dag.gnp rng ~n:20 ~edge_prob:0.2 in
      Topo.is_order g (Topo.order g))

(* ------------------------------------------------------------------ *)
(* Reach                                                               *)

let test_reach_diamond () =
  let g, (va, vb, vc, vd) = small_diamond () in
  Alcotest.(check (list int)) "desc a" [ vb; vc; vd ]
    (Bitset.elements (Reach.descendants g va));
  Alcotest.(check (list int)) "anc d" [ va; vb; vc ]
    (Bitset.elements (Reach.ancestors g vd));
  Alcotest.(check (list int)) "desc b" [ vd ] (Bitset.elements (Reach.descendants g vb));
  check_bool "a reaches d" true (Reach.reaches g va vd);
  check_bool "b does not reach c" false (Reach.reaches g vb vc);
  check_bool "reflexive" true (Reach.reaches g vb vb)

let test_convexity () =
  let g, (va, vb, vc, vd) = small_diamond () in
  let set l = Bitset.of_list 4 l in
  check_bool "whole graph convex" true (Reach.is_convex g (set [ va; vb; vc; vd ]));
  check_bool "a,b convex" true (Reach.is_convex g (set [ va; vb ]));
  check_bool "a,d not convex" false (Reach.is_convex g (set [ va; vd ]));
  check_bool "empty convex" true (Reach.is_convex g (set []))

let prop_closure_agrees_with_reaches =
  QCheck.Test.make ~name:"transitive closure agrees with reaches" ~count:30
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Dmc_gen.Random_dag.gnp rng ~n:12 ~edge_prob:0.25 in
      let closure = Reach.transitive_closure g in
      let ok = ref true in
      for u = 0 to 11 do
        for v = 0 to 11 do
          if Bitset.mem closure.(u) v <> Reach.reaches g u v then ok := false
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Validate                                                            *)

let test_validate_conventions () =
  let g, _ = small_diamond () in
  check_bool "hong-kung ok" true (Validate.is_hong_kung g);
  check_bool "rbw ok" true (Validate.is_rbw g);
  let untagged = Cdag.retag g ~inputs:[] ~outputs:[] in
  check_bool "untagged violates HK" false (Validate.is_hong_kung untagged);
  check_bool "untagged fine for RBW" true (Validate.is_rbw untagged);
  let bad = Cdag.retag g ~inputs:[ 3 ] ~outputs:[] in
  check_bool "input with preds violates RBW" false (Validate.is_rbw bad);
  match Validate.rbw bad with
  | [ Validate.Input_has_pred v ] -> check "violating vertex" 3 v
  | _ -> Alcotest.fail "expected one Input_has_pred violation"

(* ------------------------------------------------------------------ *)
(* Subgraph                                                            *)

let test_induced_mapping () =
  let g, (va, vb, _, vd) = small_diamond () in
  let part = Subgraph.induced_list g [ va; vb; vd ] in
  check "induced vertices" 3 (Cdag.n_vertices part.Subgraph.graph);
  check "induced edges" 2 (Cdag.n_edges part.Subgraph.graph);
  Array.iteri
    (fun small big ->
      Alcotest.(check (option int)) "roundtrip" (Some small) (part.Subgraph.of_parent big))
    part.Subgraph.to_parent;
  Alcotest.(check (option int)) "absent vertex" None (part.Subgraph.of_parent 2);
  check "induced inputs" 1 (Cdag.n_inputs part.Subgraph.graph);
  check "induced outputs" 1 (Cdag.n_outputs part.Subgraph.graph)

let test_partition_covers () =
  let g, _ = small_diamond () in
  let parts = Subgraph.partition g [| 0; 0; 1; 1 |] in
  check "two parts" 2 (Array.length parts);
  check "sizes sum" 4
    (Array.fold_left (fun acc p -> acc + Cdag.n_vertices p.Subgraph.graph) 0 parts)

let test_boundaries () =
  let g, (va, vb, vc, vd) = small_diamond () in
  let set = Bitset.of_list 4 [ vb; vc ] in
  Alcotest.(check (list int)) "In" [ va ] (Bitset.elements (Subgraph.boundary_in g set));
  Alcotest.(check (list int)) "Out" [ vb; vc ]
    (Bitset.elements (Subgraph.boundary_out g set));
  let set2 = Bitset.of_list 4 [ vd ] in
  Alcotest.(check (list int)) "tagged output in Out" [ vd ]
    (Bitset.elements (Subgraph.boundary_out g set2))

let test_drop_io () =
  let g, _ = small_diamond () in
  let part, di, d_o = Subgraph.drop_io g in
  check "dI" 1 di;
  check "dO" 1 d_o;
  check "survivors" 2 (Cdag.n_vertices part.Subgraph.graph);
  check "no tags left" 0
    (Cdag.n_inputs part.Subgraph.graph + Cdag.n_outputs part.Subgraph.graph);
  let part_i, di' = Subgraph.drop_inputs g in
  check "dI only" 1 di';
  check "survivors keep outputs" 1 (Cdag.n_outputs part_i.Subgraph.graph);
  check "three survivors" 3 (Cdag.n_vertices part_i.Subgraph.graph)

(* A random DAG with every third vertex labelled and the rest not, so
   part labels exercise both [Cdag.label] cases. *)
let random_labelled_dag rng =
  let g =
    match Rng.int rng 3 with
    | 0 ->
        Random_dag.daggen rng ~n:(2 + Rng.int rng 60) ~fat:(Rng.float rng 1.0)
          ~density:(Rng.float rng 1.0) ~ccr:(Rng.int rng 4)
    | 1 ->
        Random_dag.layered rng ~layers:(1 + Rng.int rng 5) ~width:(1 + Rng.int rng 6)
          ~edge_prob:0.4
    | _ -> Random_dag.gnp rng ~n:(1 + Rng.int rng 30) ~edge_prob:0.2
  in
  let n = Cdag.n_vertices g in
  let b = Cdag.Builder.create ~hint:n () in
  for v = 0 to n - 1 do
    ignore
      (if v mod 3 = 0 then Cdag.Builder.add_vertex ~label:(Printf.sprintf "x%d" v) b
       else Cdag.Builder.add_vertex b)
  done;
  Cdag.iter_edges g (Cdag.Builder.add_edge b);
  Cdag.Builder.freeze ~inputs:(Cdag.inputs g) ~outputs:(Cdag.outputs g) b

(* Empty, singleton, full, or each vertex with a random probability. *)
let random_subset rng n =
  let set = Bitset.create n in
  (match Rng.int rng 5 with
  | 0 -> ()
  | 1 -> if n > 0 then Bitset.add set (Rng.int rng n)
  | 2 -> for v = 0 to n - 1 do Bitset.add set v done
  | _ ->
      let p = Rng.float rng 1.0 in
      for v = 0 to n - 1 do
        if Rng.float rng 1.0 < p then Bitset.add set v
      done);
  set

let prop_induced_matches_reference =
  QCheck.Test.make ~name:"induced = Builder-based reference on random DAGs" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = random_labelled_dag rng in
      let n = Cdag.n_vertices g in
      let set = random_subset rng n in
      match
        Reference.part_diff ~parent_n:n (Subgraph.induced g set) (Reference.induced g set)
      with
      | None -> true
      | Some d -> QCheck.Test.fail_reportf "n=%d, |set|=%d: %s" n (Bitset.cardinal set) d)

let test_induced_full_set_is_identity () =
  let g, _ = small_diamond () in
  let part = Subgraph.induced g (Bitset.of_list 4 [ 0; 1; 2; 3 ]) in
  check_bool "graph itself" true (part.Subgraph.graph == g);
  Alcotest.(check (array int)) "to_parent" [| 0; 1; 2; 3 |] part.Subgraph.to_parent;
  List.iter
    (fun v ->
      Alcotest.(check (option int)) "of_parent" (if v < 0 || v > 3 then None else Some v)
        (part.Subgraph.of_parent v))
    [ -1; 0; 1; 2; 3; 4 ];
  (* stripping a graph with no tagged I/O keeps every vertex and row *)
  let g' = Cdag.retag g ~inputs:[] ~outputs:[] in
  let stripped, di, d_o = Subgraph.drop_io g' in
  check "nothing dropped" 0 (di + d_o);
  Alcotest.(check (array int)) "identity map" [| 0; 1; 2; 3 |] stripped.Subgraph.to_parent;
  Alcotest.(check (option string)) "same graph" None
    (Reference.graph_diff stripped.Subgraph.graph g')

let prop_freeze_order_insensitive =
  QCheck.Test.make ~name:"freeze: shuffled, duplicated edges = sorted insertion" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = random_labelled_dag rng in
      let n = Cdag.n_vertices g in
      let build ?inputs ?outputs edges =
        let b = Cdag.Builder.create () in
        for v = 0 to n - 1 do
          ignore (Cdag.Builder.add_vertex ~label:(Cdag.label g v) b)
        done;
        Array.iter (fun (u, v) -> Cdag.Builder.add_edge b u v) edges;
        Cdag.Builder.freeze ?inputs ?outputs b
      in
      let sorted = ref [] in
      Cdag.iter_edges g (fun u v -> sorted := (u, v) :: !sorted);
      let sorted = Array.of_list (List.rev !sorted) in
      let messy =
        Array.concat
          (Array.to_list (Array.map (fun e -> Array.make (1 + Rng.int rng 3) e) sorted))
      in
      Rng.shuffle rng messy;
      let tags = (Cdag.inputs g, Cdag.outputs g) in
      let diff a b = Reference.graph_diff a b in
      match
        ( diff (build ~inputs:(fst tags) ~outputs:(snd tags) messy)
            (build ~inputs:(fst tags) ~outputs:(snd tags) sorted),
          diff (build messy) (build sorted) )
      with
      | None, None -> true
      | Some d, _ | _, Some d -> QCheck.Test.fail_reportf "n=%d: %s" n d)

(* Every cycle has an ascending edge; this one has only that one, so
   the descending edges are what triggers the acyclicity check. *)
let test_freeze_rejects_descending_cycle () =
  let b = Cdag.Builder.create () in
  for _ = 0 to 3 do ignore (Cdag.Builder.add_vertex b) done;
  Cdag.Builder.add_edge b 3 2;
  Cdag.Builder.add_edge b 2 1;
  Cdag.Builder.add_edge b 1 0;
  Cdag.Builder.add_edge b 0 3;
  Alcotest.check_raises "cycle" (Invalid_argument "Cdag: edge relation has a cycle")
    (fun () -> ignore (Cdag.Builder.freeze b));
  (* the same descending chain without the closing edge is a DAG *)
  let b = Cdag.Builder.create () in
  for _ = 0 to 3 do ignore (Cdag.Builder.add_vertex b) done;
  Cdag.Builder.add_edge b 3 2;
  Cdag.Builder.add_edge b 2 1;
  Cdag.Builder.add_edge b 1 0;
  let g = Cdag.Builder.freeze b in
  Alcotest.(check (list int)) "inputs" [ 3 ] (Cdag.inputs g);
  Alcotest.(check (list int)) "pred 0" [ 1 ] (Cdag.pred_list g 0)

let test_of_rows () =
  let tags n = (Bitset.create n, Bitset.create n) in
  let inputs, outputs = tags 4 in
  (* row 0 unsorted with duplicates, row 1 already ascending, slack at
     the end of [succ] *)
  let g =
    Cdag.of_rows ~label:(fun _ -> "") ~inputs ~outputs
      ~succ_off:[| 0; 5; 7; 7; 7 |]
      ~succ:[| 3; 1; 3; 2; 1; 2; 3; 99; 99 |]
      4
  in
  check "edges" 5 (Cdag.n_edges g);
  Alcotest.(check (list int)) "row 0 sorted, deduplicated" [ 1; 2; 3 ] (Cdag.succ_list g 0);
  Alcotest.(check (list int)) "row 1 kept" [ 2; 3 ] (Cdag.succ_list g 1);
  Alcotest.(check (list int)) "pred 3" [ 0; 1 ] (Cdag.pred_list g 3);
  Alcotest.(check string) "unlabeled" "v2" (Cdag.label g 2);
  let raises what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" what
  in
  let build ?(n = 3) succ_off succ () =
    let inputs, outputs = tags n in
    ignore (Cdag.of_rows ~label:(fun _ -> "") ~inputs ~outputs ~succ_off ~succ n)
  in
  raises "self-loop" (build [| 0; 1; 1; 1 |] [| 0 |]);
  raises "successor out of range" (build [| 0; 1; 1; 1 |] [| 3 |]);
  raises "negative successor" (build [| 0; 1; 1; 1 |] [| -1 |]);
  raises "cycle" (build [| 0; 1; 2; 2 |] [| 1; 0 |]);
  raises "offsets past the rows" (build [| 0; 1; 1; 2 |] [| 1 |]);
  raises "short offsets" (build [| 0; 0 |] [||]);
  raises "tag capacity" (fun () ->
      ignore
        (Cdag.of_rows ~label:(fun _ -> "") ~inputs:(Bitset.create 2) ~outputs:(Bitset.create 3)
           ~succ_off:[| 0; 0; 0; 0 |] ~succ:[||] 3));
  Alcotest.check_raises "self-loop message" (Invalid_argument "Cdag.of_rows: self-loop")
    (build [| 0; 0; 1; 1 |] [| 1 |]);
  (* labels resolve on demand, "" falling back to "v<id>" *)
  let inputs, outputs = tags 2 in
  let asked = ref 0 in
  let g =
    Cdag.of_rows ~inputs ~outputs ~succ_off:[| 0; 1; 1 |] ~succ:[| 1 |]
      ~label:(fun v -> incr asked; if v = 0 then "zero" else "")
      2
  in
  check "no label formatted at construction" 0 !asked;
  Alcotest.(check (list string)) "labels" [ "zero"; "v1" ] [ Cdag.label g 0; Cdag.label g 1 ];
  raises "label out of range" (fun () -> ignore (Cdag.label g 2))

(* ------------------------------------------------------------------ *)
(* Dot / Serialize                                                     *)

let contains needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_dot_contains_structure () =
  let g, _ = small_diamond () in
  let dot = Dot.to_string ~name:"test" ~highlight:[ 1 ] g in
  check_bool "has digraph" true
    (String.length dot > 7 && String.sub dot 0 7 = "digraph");
  check_bool "edge rendered" true (contains "n0 -> n1" dot);
  check_bool "highlight rendered" true (contains "lightblue" dot);
  check_bool "input shape" true (contains "shape=box" dot)

let test_serialize_roundtrip () =
  let g, _ = small_diamond () in
  let text = Serialize.to_string g in
  match Serialize.of_string text with
  | Error msg -> Alcotest.fail msg
  | Ok g2 -> check_bool "equal structure" true (Serialize.equal_structure g g2)

let test_serialize_errors () =
  (match Serialize.of_string "e 0 1\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing header accepted");
  (match Serialize.of_string "cdag 2\ne 0 5\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "out-of-range vertex accepted");
  match Serialize.of_string "cdag 2\nbogus\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad directive accepted"

(* Corrupt-input matrix: every malformed construct must come back as
   [Error] naming the offending line, never as an exception. *)
let test_serialize_corrupt_matrix () =
  let expect_error name text needle =
    match Serialize.of_string text with
    | Ok _ -> Alcotest.failf "%s: accepted %S" name text
    | Error msg ->
        check_bool
          (Printf.sprintf "%s: %S mentions %S" name msg needle)
          true (contains needle msg)
  in
  expect_error "empty" "" "missing cdag header";
  expect_error "comments only" "# nothing here\n\n" "missing cdag header";
  expect_error "edge before header" "e 0 1\ncdag 2\n"
    "line 1: directive before the cdag header";
  expect_error "bare header" "cdag\n" "exactly one vertex count";
  expect_error "header arity" "cdag 2 3\n" "exactly one vertex count";
  expect_error "negative count" "cdag -3\n" "line 1: negative vertex count";
  expect_error "non-integer count" "cdag two\n" "line 1: not an integer: two";
  expect_error "duplicate header" "cdag 2\ncdag 2\n"
    "line 2: duplicate cdag header (first on line 1)";
  expect_error "dangling endpoint" "cdag 2\ne 0 5\n"
    "line 2: vertex 5 out of range (header declares 2 vertices)";
  expect_error "negative endpoint" "cdag 2\ne -1 1\n" "out of range";
  expect_error "edge arity short" "cdag 2\ne 0\n"
    "line 2: edge needs exactly two endpoints";
  expect_error "edge arity long" "cdag 3\ne 0 1 2\n"
    "line 2: edge needs exactly two endpoints";
  expect_error "self-loop" "cdag 2\ne 1 1\n" "line 2: self-loop on vertex 1";
  expect_error "duplicate edge" "cdag 2\ne 0 1\n# gap\ne 0 1\n"
    "line 4: duplicate edge 0 -> 1 (first on line 2)";
  expect_error "cycle" "cdag 3\ne 0 1\ne 1 2\ne 2 0\n" "cycle";
  expect_error "tag out of range" "cdag 2\ni 0 7\n" "line 2: vertex 7 out of range";
  expect_error "duplicate input tag" "cdag 2\ni 0\ni 0\n"
    "line 3: duplicate input tag on vertex 0 (first on line 2)";
  expect_error "duplicate output tag" "cdag 2\no 1 1\n"
    "duplicate output tag on vertex 1";
  expect_error "label without label" "cdag 2\nl 0\n"
    "line 2: label directive without a label";
  expect_error "label out of range" "cdag 2\nl 9 x\n" "line 2: vertex 9 out of range";
  expect_error "duplicate label" "cdag 2\nl 0 a\nl 0 b\n"
    "line 3: duplicate label for vertex 0 (first on line 2)";
  expect_error "garbage directive" "cdag 2\nxyzzy 1\n"
    "line 2: unrecognized directive: xyzzy 1";
  (* the accepted grammar still parses: comments, blanks, labels with
     spaces, forward references *)
  match Serialize.of_string "cdag 3\n\n# ok\ne 0 2\ne 1 2\ni 0 1\no 2\nl 2 a b\n" with
  | Error m -> Alcotest.fail m
  | Ok g ->
      check "vertices" 3 (Cdag.n_vertices g);
      check "edges" 2 (Cdag.n_edges g);
      Alcotest.(check string) "spaced label" "a b" (Cdag.label g 2)

let test_serialize_of_file_errors () =
  (match Serialize.of_file "/nonexistent/dmc-no-such-file.cdag" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "read a nonexistent file");
  let path = Filename.temp_file "dmc-test-serialize" ".cdag" in
  let oc = open_out path in
  output_string oc "cdag 2\ne 0 bogus\n";
  close_out oc;
  (match Serialize.of_file path with
  | Error msg -> check_bool "line number survives of_file" true (contains "line 2" msg)
  | Ok _ -> Alcotest.fail "accepted corrupt file");
  Sys.remove path

let test_serialize_labels_roundtrip () =
  let b = Cdag.Builder.create () in
  let x = Cdag.Builder.add_vertex ~label:"alpha beta" b in
  let y = Cdag.Builder.add_vertex b in
  Cdag.Builder.add_edge b x y;
  let g = Cdag.Builder.freeze b in
  match Serialize.of_string (Serialize.to_string g) with
  | Error m -> Alcotest.fail m
  | Ok g2 ->
      Alcotest.(check string) "label with space survives" "alpha beta" (Cdag.label g2 x);
      Alcotest.(check string) "default label" "v1" (Cdag.label g2 y)

let test_dot_escaping () =
  let b = Cdag.Builder.create () in
  let _ = Cdag.Builder.add_vertex ~label:{|say "hi"\now|} b in
  let g = Cdag.Builder.freeze b in
  let dot = Dot.to_string g in
  check_bool "escapes quotes" true (contains {|\"hi\"|} dot)

let prop_serialize_roundtrip_random =
  QCheck.Test.make ~name:"serialize round-trips random CDAGs" ~count:60
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Dmc_gen.Random_dag.layered rng ~layers:4 ~width:4 ~edge_prob:0.4 in
      match Serialize.of_string (Serialize.to_string g) with
      | Ok g2 -> Serialize.equal_structure g g2
      | Error _ -> false)

let qsuite name tests =
  (* fixed qcheck seed so runs are reproducible *)
  ( name,
    List.map
      (fun t -> QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t)
      tests )

let () =
  Alcotest.run "dmc_cdag"
    [
      ( "builder",
        [
          Alcotest.test_case "basic structure" `Quick test_builder_basic;
          Alcotest.test_case "edge dedup" `Quick test_builder_dedup;
          Alcotest.test_case "rejects cycles" `Quick test_builder_rejects_cycle;
          Alcotest.test_case "rejects self loops" `Quick test_builder_rejects_self_loop;
          Alcotest.test_case "explicit tagging and retag" `Quick test_explicit_tagging_and_retag;
          Alcotest.test_case "sources and sinks" `Quick test_sources_sinks;
        ] );
      ( "topo",
        [
          Alcotest.test_case "order" `Quick test_topo_order;
          Alcotest.test_case "rejects bad orders" `Quick test_topo_rejects_bad_orders;
          Alcotest.test_case "depth and height" `Quick test_depth_height;
          Alcotest.test_case "layers" `Quick test_layers;
        ] );
      qsuite "topo-props" [ prop_topo_on_random ];
      ( "reach",
        [
          Alcotest.test_case "diamond" `Quick test_reach_diamond;
          Alcotest.test_case "convexity" `Quick test_convexity;
        ] );
      qsuite "reach-props" [ prop_closure_agrees_with_reaches ];
      ( "validate", [ Alcotest.test_case "conventions" `Quick test_validate_conventions ] );
      ( "subgraph",
        [
          Alcotest.test_case "induced mapping" `Quick test_induced_mapping;
          Alcotest.test_case "partition covers" `Quick test_partition_covers;
          Alcotest.test_case "boundaries" `Quick test_boundaries;
          Alcotest.test_case "drop io" `Quick test_drop_io;
          Alcotest.test_case "full set is identity" `Quick test_induced_full_set_is_identity;
        ] );
      qsuite "induced" [ prop_induced_matches_reference ];
      ( "of_rows",
        [
          Alcotest.test_case "rows, validation, labels" `Quick test_of_rows;
          Alcotest.test_case "descending cycle" `Quick test_freeze_rejects_descending_cycle;
        ] );
      qsuite "freeze" [ prop_freeze_order_insensitive ];
      ( "io",
        [
          Alcotest.test_case "dot structure" `Quick test_dot_contains_structure;
          Alcotest.test_case "serialize roundtrip" `Quick test_serialize_roundtrip;
          Alcotest.test_case "serialize errors" `Quick test_serialize_errors;
          Alcotest.test_case "corrupt input matrix" `Quick test_serialize_corrupt_matrix;
          Alcotest.test_case "of_file errors" `Quick test_serialize_of_file_errors;
          Alcotest.test_case "labels roundtrip" `Quick test_serialize_labels_roundtrip;
          Alcotest.test_case "dot escaping" `Quick test_dot_escaping;
        ] );
      qsuite "io-props" [ prop_serialize_roundtrip_random ];
    ]
