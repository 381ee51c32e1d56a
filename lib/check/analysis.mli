(** A typed analysis over the compiled tree: domain safety, determinism,
    dead exports and dead fields.

    The pass loads the [.cmt] typedtree artifacts dune already produces
    ([-bin-annot] is on for every build) and reasons about *types*: a
    variable merely typed [Seq32.t], an aliased [module H = Hashtbl], or
    a record whose declaration has [mutable] fields are all visible here
    and invisible to a parse of the source text. The repo's byte-identical parallel-execution
    guarantee (DESIGN.md §11/§13) rests on two global invariants this
    pass checks statically instead of only by runtime digest comparison:

    - {b mutable-global}: every top-level binding whose type is mutable —
      [ref], [Hashtbl.t], [Buffer.t], [Queue.t], [Stack.t], [array],
      [bytes], [Random.State.t], or a record declared with [mutable] (or
      container) fields — is shared state reachable from every domain.
      Bindings typed [Atomic.t], [Mutex.t]/[Condition.t]/[Semaphore.*],
      or [Domain.DLS.key] classify as safe; everything else is a hazard
      unless a reviewed allowlist entry justifies it (e.g. the
      mutex-guarded [Metrics] registry).
    - {b nondet-random} / {b nondet-wallclock} / {b nondet-domain-id}:
      uses of the global [Stdlib.Random] state ([Random.State] is exempt:
      explicit state is how [Engine.split_rng] plumbs determinism),
      wall-clock reads ([Unix.gettimeofday], [Unix.time], [Sys.time]),
      and [Domain.self] used as data — each a nondeterminism source that
      must not influence simulation results.
    - {b hashtbl-order}: [Hashtbl.iter]/[fold] detected by *resolved
      path*, so aliases and [open] are caught and same-named non-stdlib
      modules are not. Their visit order is unspecified and has escaped
      into behaviour before (retry order on daemon restart, teardown
      sweep order); use [Otable] or sort the bindings first.
    - {b poly-compare-seq}: a polymorphic comparison whose operand is
      *typed* [Seq32.t]. 32-bit sequence numbers wrap; [Stdlib.compare]
      on their raw representation is wrong across the 2{^32} boundary.
    - {b naked-failwith}: [Stdlib.failwith] (applied or not) and
      [assert false]. Internal-invariant violations must raise
      {!Smapp_sim.Bug.Bug} with a message naming the invariant
      ([Bug.fail]); [Failure] is reserved for environment/resource
      conditions a caller is expected to handle.
    - {b naked-print}: [Printf.printf]/[Printf.eprintf],
      [print_endline]/[prerr_endline] and [print_string]/[prerr_string].
      Library code writing straight to the std channels cannot be
      redirected or silenced by a host application; it returns the text,
      or prints to a formatter its caller passes in.
    - {b hot-alloc}: inside functions marked [[@@smapp.hot]] (engine
      dispatch, event-queue sifts, link delivery), closure and record
      allocations are flagged — the per-event allocation inventory behind
      ROADMAP item 2.
    - {b dead-export}: a value an analyzed unit's [.mli] exports
      (submodules included) that no other unit of the user set
      references. References are matched by the declaration's uid, not by
      path, so [module X = Y], [open] and dune's library wrappers are
      transparent. Units without an [.mli] export nothing this rule
      checks.
    - {b dead-optional}: an optional parameter of a live export that no
      application in the user set passes, the unit's own included; its
      default should be inlined.
    - {b dead-field}: a record field an analyzed unit declares that no
      unit of the user set reads, its own included. [r.f], a record
      pattern binding [f] to anything but [_], and a [{ r with ... }]
      that copies [f] read it; building a record and [<-] do not. A
      re-export [type t = M.r = {...}] shares [M.r]'s fields.

    The last three rules need a user set: every unit whose references keep
    an export or a field alive. {!run} takes it from the directory that holds the
    analyzed root (with dune, the whole build tree: lib/, bin/,
    perfbench/, examples/ and test/ with its fixtures); {!run_files}
    uses the files it analyzes.

    Findings carry both a source location and a {!key} that is a pure
    function of (rule, module path, symbol) — stable under reformatting
    and module reordering — which is what the allowlist matches on. *)

type rule =
  | Mutable_global
  | Nondet_random
  | Nondet_wallclock
  | Nondet_domain
  | Hashtbl_order
  | Poly_compare_seq
  | Hot_alloc
  | Naked_failwith
  | Naked_print
  | Dead_export
  | Dead_optional
  | Dead_field

val rule_id : rule -> string
(** ["mutable-global"], ["nondet-random"], ["nondet-wallclock"],
    ["nondet-domain-id"], ["hashtbl-order"], ["poly-compare-seq"],
    ["hot-alloc"], ["naked-failwith"], ["naked-print"], ["dead-export"],
    ["dead-optional"], ["dead-field"]. *)

type finding = {
  a_rule : rule;
  a_file : string;  (** source path as recorded in the cmt, e.g. [lib/obs/trace.ml] *)
  a_line : int;  (** 1-based *)
  a_col : int;  (** 0-based *)
  a_module : string;  (** normalized unit + submodule path, e.g. [Smapp_obs.Metrics.Scope] is spelled [Smapp_obs.Metrics] with symbol [Scope.key] *)
  a_symbol : string;  (** value name; expression findings append [:Used.path] ([:assert-false] for [assert false]), hot-alloc appends [:closure]/[:record], dead-optional appends [:?label]; dead-field's is [type.label] *)
  a_message : string;
}

val key : finding -> string
(** [rule-id Module.symbol] — location-independent identity used by the
    allowlist. Repeated occurrences inside one symbol share a key and are
    merged into one finding. *)

val pp_finding : Format.formatter -> finding -> unit
(** [file:line:col: [rule-id] Module.symbol: message] — editor-clickable. *)

(** {1 Allowlist} *)

type allowlist
(** Reviewed suppressions: finding {!key} → written justification. *)

val empty_allowlist : allowlist

val allowlist_of_entries : (string * string) list -> allowlist
(** [(key, justification)] pairs; later entries win. *)

val load_allowlist : string -> (allowlist, string) result
(** Parse an allowlist file. One entry per line:
    [<rule-id> <Module.symbol> -- <justification>]; blank lines and [#]
    comments are skipped. A missing or empty justification is a parse
    error — every suppression must say why. *)

(** {1 Running} *)

type report = {
  r_findings : finding list;  (** unsuppressed, sorted by (file, line, col) *)
  r_allowlisted : (finding * string) list;  (** suppressed, with justification *)
  r_stale_allow : string list;  (** allowlist keys that matched nothing *)
  r_units : int;  (** compilation units analyzed *)
}

val run_files : ?allowlist:allowlist -> string list -> report
(** Analyze an explicit list of [.cmt] files, which are also the user set
    of the cross-unit rules (each unit's [.mli] is read from the [.cmti]
    beside its [.cmt]). Unreadable files and non-implementation artifacts
    are skipped. The resulting report is a pure function of the file
    {e set}: input order does not matter. *)

val scan : root:string -> string list
(** All [.cmt] files under [root], recursively (including dune's hidden
    [.objs] directories), in sorted order. *)

val run : ?allowlist:allowlist -> root:string -> unit -> report
(** Analyze [scan ~root]; every [.cmt] under [root]'s parent directory is
    the user set. *)

val default_root : unit -> string option
(** Where the current working directory keeps its [.cmt] artifacts:
    [_build/default/lib] from a repo checkout, [lib] from inside a dune
    action (cwd [_build/default]); [None] when neither holds any. *)

val keys : report -> string list
(** Sorted unsuppressed finding keys. *)
