(* The experiment registry.  Every experiment is an {!Experiment.t} —
   a list of serializable parts plus a pure document assembler — built
   by its own analysis module; this file only lists them in the
   canonical order and provides the print-and-check driver the CLI and
   the bench harness use. *)

let experiments : Experiment.t list =
  [
    {
      name = "summary";
      parts = Summary.parts;
      doc_of_parts = Summary.doc_of_parts;
    };
    { name = "table1"; parts = Table1.parts; doc_of_parts = Table1.doc_of_parts };
    { name = "sec3"; parts = Sec3.parts; doc_of_parts = Sec3.doc_of_parts };
    {
      name = "cg";
      parts = Cg_analysis.parts;
      doc_of_parts = Cg_analysis.doc_of_parts;
    };
    {
      name = "gmres";
      parts = Gmres_analysis.parts;
      doc_of_parts = Gmres_analysis.doc_of_parts;
    };
    {
      name = "jacobi";
      parts = Jacobi_analysis.parts;
      doc_of_parts = Jacobi_analysis.doc_of_parts;
    };
    { name = "scaling"; parts = Scaling.parts; doc_of_parts = Scaling.doc_of_parts };
    {
      name = "fft";
      parts = Fft_analysis.parts;
      doc_of_parts = Fft_analysis.doc_of_parts;
    };
    { name = "curves"; parts = Curves.parts; doc_of_parts = Curves.doc_of_parts };
    {
      name = "multigrid";
      parts = Multigrid_analysis.parts;
      doc_of_parts = Multigrid_analysis.doc_of_parts;
    };
    {
      name = "reductions";
      parts = Reductions.parts;
      doc_of_parts = Reductions.doc_of_parts;
    };
    {
      name = "tradeoff";
      parts = Tradeoff.parts;
      doc_of_parts = Tradeoff.doc_of_parts;
    };
    {
      name = "symscale";
      parts = Symscale.parts;
      doc_of_parts = Symscale.doc_of_parts;
    };
    {
      name = "validate";
      parts = Validate.validate_parts;
      doc_of_parts = Validate.validate_doc_of_parts;
    };
    {
      name = "sim";
      parts = Validate.sim_parts;
      doc_of_parts = Validate.sim_doc_of_parts;
    };
  ]

let find name = List.find_opt (fun (e : Experiment.t) -> e.name = name) experiments

let names =
  List.map
    (fun (e : Experiment.t) ->
      ( e.Experiment.name,
        fun () ->
          let doc = Experiment.doc e in
          print_string (Doc.to_text doc);
          Doc.ok doc ))
    experiments
