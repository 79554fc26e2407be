let version = "dmc-serve-cache-v1"

(* The key material is an explicit NUL-separated field list, not a JSON
   rendering: a renderer tweak (float formatting, key order) must never
   silently re-key the whole cache.  NUL cannot appear in any field —
   engine names and workload specs are ASCII identifiers, and the graph
   serialization is line-oriented text — so fields cannot bleed into
   each other. *)
(* Spec-sourced queries get their own key space: the digest covers the
   spec string, never the graph, so the lookup costs nothing even when
   the spec names a graph that is expensive (or impossible) to build.
   The distinct version tag keeps the two spaces disjoint — a spec key
   can never collide into an inline-graph entry or vice versa. *)
let spec_version = "dmc-serve-cache-spec-v1"

let of_spec ~engine ~s ~timeout ~node_budget ~samples spec =
  let material =
    String.concat "\x00"
      [
        spec_version;
        engine;
        string_of_int s;
        (match timeout with
        | None -> "-"
        | Some t -> Printf.sprintf "%.17g" t);
        (match node_budget with None -> "-" | Some n -> string_of_int n);
        string_of_int samples;
        String.trim spec;
      ]
  in
  Digest.to_hex (Digest.string material)

let of_job (j : Dmc_core.Engine_job.t) =
  let graph =
    match Lazy.force j.cdag with
    | Ok g -> Dmc_cdag.Serialize.to_string g
    | Error _ -> j.graph
  in
  let material =
    String.concat "\x00"
      [
        version;
        j.engine;
        string_of_int j.s;
        (match j.timeout with
        | None -> "-"
        | Some t -> Printf.sprintf "%.17g" t);
        (match j.node_budget with None -> "-" | Some n -> string_of_int n);
        string_of_int j.samples;
        graph;
      ]
  in
  Digest.to_hex (Digest.string material)
