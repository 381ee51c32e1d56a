(** Exhaustive tie-order exploration.

    The engine runs same-instant events in scheduling (FIFO) order, and
    most of the tree quietly relies on it. This module checks that nothing
    *semantic* does. A scenario ([Engine.t -> string]) builds its world on
    the given engine (seeded 7 on every run, so only tie order varies),
    drives it with [Engine.run], and digests what must be order-invariant
    (bytes delivered, final phases, subflow counts...).

    The walk is stateless and depth first, as in VeriSoft (Godefroid, POPL
    1997). A schedule is the list of the engine's picks ({!Engine.create}'s
    [choose]), one per tie group of two or more. The first picks 0
    everywhere: the FIFO baseline. Each next one moves the deepest pick
    that has an untried sibling, replays the picks above it and picks 0
    below it, so every schedule of the tree runs exactly once. *)

open Smapp_sim

type outcome = {
  schedules : int;  (** schedules run: every one the tree has *)
  baseline : string;  (** the FIFO digest *)
  digests : (string * int) list;  (** distinct digest -> schedules, sorted by digest *)
  divergent : (int list * string) option;
      (** the first schedule whose digest differed, as its picks, with that digest *)
}

val consistent : outcome -> bool
(** No divergence: every schedule produced the baseline digest. *)

val pp_outcome : Format.formatter -> outcome -> unit

val run : (Engine.t -> string) -> outcome
(** [run scenario] runs every schedule of [scenario]'s tie tree. A replayed
    prefix that meets another group size, or fewer tie groups, is a
    nondeterministic scenario: {!Smapp_sim.Bug}. A tree of more than
    10,000 schedules raises [Invalid_argument] after the 10,000th.
    Exceptions from the scenario (including {!Fsm.Conformance}) propagate
    to the caller. *)
