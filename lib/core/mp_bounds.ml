let find name =
  match Bounds.find name with
  | Some e when e.Bounds.quantity <> Bounds.Seq -> Some e
  | _ -> None

let is_engine name = find name <> None

let kind_of name = Option.map (fun (e : Bounds.engine) -> e.kind) (find name)
