(** Atomic JSON checkpoint files for the long-running drivers.

    [dmc experiment], [dmc sweep] and the fuzzer periodically persist
    their progress (committed payloads, RNG state) so that a killed run
    can be resumed with [--resume].  Writes go through a temporary file
    and a rename, so a crash mid-write never leaves a truncated
    checkpoint behind — the previous one survives intact. *)

val write : string -> Json.t -> unit
(** [write path json] serializes [json] to a uniquely named temporary
    file {e in [path]'s own directory} and renames it over [path].
    The temp never goes to [TMPDIR]: rename is only atomic within one
    filesystem, and a TMPDIR on another mount would turn the final
    rename into an [EXDEV] failure.  Raises [Sys_error] on I/O failure
    (the drivers treat a failed checkpoint as fatal rather than
    silently losing progress); the temp file is removed on the error
    path.  Before writing, stale orphaned temps for the same [path]
    are swept (see {!sweep_orphans}), so a SIGKILLed predecessor
    cannot accumulate [*.tmp] litter forever. *)

val sweep_orphans : ?max_age:float -> string -> int
(** [sweep_orphans path] removes temp files stranded next to [path] by
    a writer killed between temp-write and rename: regular files in
    [path]'s directory matching this module's own naming scheme
    ([basename.<unique>.tmp]) whose mtime is older than [max_age]
    seconds (default 600).  The age floor protects a concurrent
    writer's live temp.  Returns the number of files removed; unstattable
    or unremovable entries (and an unreadable directory) are skipped
    silently — sweeping is best-effort hygiene, never a failure
    reason.  Called automatically by {!write}; exposed for daemons
    that want to sweep on startup before their first checkpoint. *)

val load : string -> (Json.t, string) result
(** Read and parse a checkpoint; [Error] describes a missing,
    unreadable or malformed file. *)

(** {1 Committed-prefix checkpoints}

    [dmc experiment] and [dmc sweep] commit units in submission order
    and checkpoint the committed prefix as
    [{"kind", "v", "key", "committed"}]: a kind tag, a schema version, a
    key that fixes the unit list (the selected experiment names, a
    grid's signature) and the committed payloads in order. *)

val prefix : kind:string -> version:int -> key:Json.t -> Json.t list -> Json.t

val read_prefix :
  kind:string -> version:int -> key:Json.t -> units:int -> Json.t ->
  (Json.t list, string) result
(** The committed payloads of a {!prefix} document.  [Error] on another
    (or no) kind, version or key, or on more payloads than [units], so a
    resume never mis-aligns payloads with units. *)
