(** Bounded tie-order race exploration.

    The engine documents that same-instant events run in scheduling (FIFO)
    order, and most of the tree quietly relies on it. This module checks
    that nothing *semantic* does: it runs one scenario many times, first
    with the documented FIFO tie order (the baseline), then with
    {!Smapp_sim.Engine.Shuffle} tie-breaking under distinct seeds — each
    run delivering same-timestamp events in a different permutation — and
    compares a caller-computed digest of the final state across runs.

    A scenario is a function [Engine.t -> string]: build the world on the
    given engine (whose RNG seed is fixed across runs, so the *world* is
    identical and only tie order varies), drive it with [Engine.run], and
    return a digest of everything that must be permutation-invariant
    (bytes delivered, final phases, subflow counts...). *)

open Smapp_sim

type outcome = {
  runs : int;  (** total runs, baseline included *)
  baseline : string;  (** the FIFO digest *)
  digests : (string * int) list;  (** distinct digest -> occurrences *)
  divergent : (int * string) option;
      (** first shuffle seed whose digest differed, with that digest *)
}

val consistent : outcome -> bool
(** No divergence: every permutation produced the baseline digest. *)

val pp_outcome : Format.formatter -> outcome -> unit

val run : ?permutations:int -> (Engine.t -> string) -> outcome
(** [run scenario] executes the baseline plus [permutations] (default 128)
    shuffled runs. Every engine is seeded 7; shuffle run [i] seeds its
    tie-break RNG with [1000 + i]. Exceptions from the scenario (including
    {!Fsm.Conformance}) propagate to the caller with the run already
    identifiable from the engine state. *)
