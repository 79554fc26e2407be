(* Atomic checkpoint writes.

   The temp file is created in the *destination's* directory, never in
   TMPDIR: rename(2) is only atomic within one filesystem, and a
   TMPDIR-honoring scratch path (Filename.temp_file's default) can sit
   on a different mount than the checkpoint, turning the final rename
   into an EXDEV failure.  open_temp_file with an explicit ~temp_dir
   also gives each writer a unique name, so two processes
   checkpointing to the same path never clobber each other's
   half-written temp. *)

(* A SIGKILL (or power loss) between temp-write and rename strands the
   temp file under the destination name's prefix forever — nothing ever
   renames or deletes it.  Each writer therefore sweeps its
   predecessors' orphans: files matching our own naming scheme
   ([basename.<random>.tmp], exactly what [open_temp_file] below
   produces) that are older than [max_age].  The age floor keeps a
   sweep from deleting the temp a concurrent writer is fsyncing right
   now — a live write-and-rename takes milliseconds, not minutes. *)
let default_max_age = 600.

let is_orphan ~base name =
  let prefix = base ^ "." and suffix = ".tmp" in
  let lp = String.length prefix and ls = String.length suffix in
  String.length name > lp + ls
  && String.sub name 0 lp = prefix
  && String.sub name (String.length name - ls) ls = suffix

let sweep_orphans ?(max_age = default_max_age) path =
  let dir = Filename.dirname path in
  let base = Filename.basename path in
  let cutoff = Unix.gettimeofday () -. max_age in
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | names ->
      Array.fold_left
        (fun removed name ->
          if not (is_orphan ~base name) then removed
          else
            let full = Filename.concat dir name in
            match Unix.stat full with
            | exception Unix.Unix_error _ -> removed
            | st ->
                if st.Unix.st_kind = Unix.S_REG && st.Unix.st_mtime <= cutoff
                then (
                  match Sys.remove full with
                  | () -> removed + 1
                  | exception Sys_error _ -> removed)
                else removed)
        0 names

let write path json =
  ignore (sweep_orphans path : int);
  let dir = Filename.dirname path in
  let tmp, oc =
    Filename.open_temp_file ~temp_dir:dir ~mode:[ Open_binary ]
      (Filename.basename path ^ ".") ".tmp"
  in
  match
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc (Json.to_string json);
        output_char oc '\n';
        (* fsync before the rename: rename(2) orders the directory
           entry, not the data blocks, so a crash right after the
           rename could otherwise expose a truncated or empty file
           under the final name. *)
        flush oc;
        Unix.fsync (Unix.descr_of_out_channel oc))
  with
  | () -> Sys.rename tmp path
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> Json.parse text
  | exception Sys_error msg -> Error msg

let prefix ~kind ~version ~key committed =
  Json.Obj
    [
      ("kind", Json.String kind);
      ("v", Json.Int version);
      ("key", key);
      ("committed", Json.List committed);
    ]

let read_prefix ~kind ~version ~key ~units json =
  let field f conv = Option.bind (Json.mem json f) conv in
  match (field "kind" Json.as_string, field "v" Json.as_int) with
  | None, _ -> Error ("not a " ^ kind ^ " checkpoint")
  | Some k, _ when k <> kind ->
      Error (Printf.sprintf "checkpoint is %S, not a %s" k kind)
  | Some _, v when v <> Some version ->
      Error
        (Printf.sprintf "%s checkpoint v%s, this build reads v%d" kind
           (Option.fold ~none:"?" ~some:string_of_int v)
           version)
  | Some _, _ -> (
      match (Json.mem json "key", field "committed" Json.as_list) with
      | Some k, Some committed when k = key ->
          if List.length committed <= units then Ok committed
          else Error "checkpoint has more committed units than this run"
      | Some k, Some _ ->
          Error
            (Printf.sprintf "checkpoint is for %s, this run for %s"
               (Json.to_string ~indent:false k)
               (Json.to_string ~indent:false key))
      | _ -> Error "checkpoint has no key/committed fields")
