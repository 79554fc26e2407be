let to_string g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "cdag %d\n" (Cdag.n_vertices g));
  let dump_tags key vs =
    if vs <> [] then begin
      Buffer.add_string buf key;
      List.iter (fun v -> Buffer.add_string buf (" " ^ string_of_int v)) vs;
      Buffer.add_char buf '\n'
    end
  in
  dump_tags "i" (Cdag.inputs g);
  dump_tags "o" (Cdag.outputs g);
  Cdag.iter_edges g (fun u v ->
      Buffer.add_string buf (Printf.sprintf "e %d %d\n" u v));
  Cdag.iter_vertices g (fun v ->
      let l = Cdag.label g v in
      if l <> "v" ^ string_of_int v then
        Buffer.add_string buf (Printf.sprintf "l %d %s\n" v l));
  Buffer.contents buf

(* Parsing is deliberately paranoid: the format is hand-editable, so
   every malformed construct — truncated header, out-of-range or
   dangling endpoint, duplicate edge/tag/label, self-loop, cyclic edge
   relation — must come back as [Error] with the offending line
   number, never as an exception. *)
let of_string text =
  let lines = String.split_on_char '\n' text in
  let exception Bad of string in
  let bad lineno fmt =
    Printf.ksprintf
      (fun msg -> raise (Bad (Printf.sprintf "line %d: %s" lineno msg)))
      fmt
  in
  try
    let header_line = ref 0 in
    let n_declared = ref (-1) in
    (* Everything is collected with its line number and validated after
       the scan, so range errors on forward references still point at
       the right line. *)
    let inputs = ref [] and outputs = ref [] in
    let labels = ref [] in
    let edges = ref [] in
    List.iteri
      (fun lineno0 line ->
        let lineno = lineno0 + 1 in
        let line = String.trim line in
        if line = "" || line.[0] = '#' then ()
        else
          let words =
            String.split_on_char ' ' line |> List.filter (fun w -> w <> "")
          in
          let int_of w =
            match int_of_string_opt w with
            | Some i -> i
            | None -> bad lineno "not an integer: %s" w
          in
          let need_header () =
            if !n_declared < 0 then bad lineno "directive before the cdag header"
          in
          match words with
          | [ "cdag"; n ] ->
              if !n_declared >= 0 then
                bad lineno "duplicate cdag header (first on line %d)" !header_line;
              let n = int_of n in
              if n < 0 then bad lineno "negative vertex count";
              n_declared := n;
              header_line := lineno
          | "cdag" :: _ -> bad lineno "cdag header needs exactly one vertex count"
          | "i" :: vs ->
              need_header ();
              List.iter (fun w -> inputs := (lineno, int_of w) :: !inputs) vs
          | "o" :: vs ->
              need_header ();
              List.iter (fun w -> outputs := (lineno, int_of w) :: !outputs) vs
          | [ "e"; u; v ] ->
              need_header ();
              edges := (lineno, int_of u, int_of v) :: !edges
          | "e" :: _ -> bad lineno "edge needs exactly two endpoints"
          | "l" :: v :: (_ :: _ as rest) ->
              need_header ();
              labels := (lineno, int_of v, String.concat " " rest) :: !labels
          | [ "l" ] | [ "l"; _ ] -> bad lineno "label directive without a label"
          | _ -> bad lineno "unrecognized directive: %s" line)
      lines;
    if !n_declared < 0 then Error "missing cdag header"
    else begin
      let n = !n_declared in
      let check lineno v =
        if v < 0 || v >= n then
          bad lineno "vertex %d out of range (header declares %d vertices)" v n
      in
      let edges_in_order = List.rev !edges in
      let seen_edge = Hashtbl.create 64 in
      List.iter
        (fun (lineno, u, v) ->
          check lineno u;
          check lineno v;
          if u = v then bad lineno "self-loop on vertex %d" u;
          match Hashtbl.find_opt seen_edge (u, v) with
          | Some first ->
              bad lineno "duplicate edge %d -> %d (first on line %d)" u v first
          | None -> Hashtbl.add seen_edge (u, v) lineno)
        edges_in_order;
      let dedup_tags what tagged =
        let first = Hashtbl.create 16 in
        List.rev_map
          (fun (lineno, v) ->
            check lineno v;
            (match Hashtbl.find_opt first v with
            | Some fl ->
                bad lineno "duplicate %s tag on vertex %d (first on line %d)"
                  what v fl
            | None -> Hashtbl.add first v lineno);
            v)
          (List.rev tagged)
        |> List.rev
      in
      let inputs = dedup_tags "input" !inputs in
      let outputs = dedup_tags "output" !outputs in
      let label_of = Array.make n "" in
      let labelled = Hashtbl.create 16 in
      List.iter
        (fun (lineno, v, l) ->
          check lineno v;
          (match Hashtbl.find_opt labelled v with
          | Some fl ->
              bad lineno "duplicate label for vertex %d (first on line %d)" v fl
          | None -> Hashtbl.add labelled v lineno);
          label_of.(v) <- l)
        (List.rev !labels);
      let b = Cdag.Builder.create ~hint:n () in
      for v = 0 to n - 1 do
        ignore (Cdag.Builder.add_vertex ~label:label_of.(v) b)
      done;
      List.iter (fun (_, u, v) -> Cdag.Builder.add_edge b u v) edges_in_order;
      match Cdag.Builder.freeze ~inputs ~outputs b with
      | g -> Ok g
      | exception Invalid_argument msg ->
          let mentions_cycle =
            let m = String.lowercase_ascii msg in
            let sub = "cycle" in
            let rec find i =
              i + String.length sub <= String.length m
              && (String.sub m i (String.length sub) = sub || find (i + 1))
            in
            find 0
          in
          if mentions_cycle then Error "declared edges form a cycle"
          else Error msg
    end
  with
  | Bad msg -> Error msg
  | Invalid_argument msg -> Error msg

let to_file path g =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string g))

let of_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic -> (
      match
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with
      | text -> of_string text
      | exception End_of_file -> Error (path ^ ": truncated file")
      | exception Sys_error msg -> Error msg)

let equal_structure a b =
  Cdag.n_vertices a = Cdag.n_vertices b
  && Cdag.n_edges a = Cdag.n_edges b
  && Cdag.inputs a = Cdag.inputs b
  && Cdag.outputs a = Cdag.outputs b
  &&
  let ok = ref true in
  Cdag.iter_edges a (fun u v -> if not (Cdag.has_edge b u v) then ok := false);
  !ok
