(* The sanctioned patterns: every binding here must classify clean —
   test_analysis asserts this module contributes zero findings. *)

let flag = Atomic.make false
let lock = Mutex.create ()
let scope : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

type point = { x : int; y : int }

let origin = { x = 0; y = 0 }
let shift p dx = { p with x = p.x + dx }

(* explicit-state randomness is the plumbed idiom, not a nondet source *)
let seeded_roll st = Random.State.int st 10

(* building a string, printing to a formatter the caller handed over,
   asserting a real condition and logging through Smapp_obs.Log are the
   sanctioned forms of what naked-failwith/naked-print flag *)
let render x = Printf.sprintf "%d" x
let emit_row ppf = Format.fprintf ppf "row@."

let checked x =
  assert (x > 0);
  x

let warn_slow () = Smapp_obs.Log.warn (fun () -> "slow")

(* Seq32's own wrap-aware operations, comparisons on other types, the
   insertion-ordered Otable and order-free Hashtbl lookups are what
   poly-compare-seq and hashtbl-order point at, not hazards *)
let seq_ordered a b = Smapp_tcp.Seq32.le a b && Smapp_tcp.Seq32.compare a b <= 0
let names_ordered (a : string) b = compare a b < 0
let walk t = Smapp_sim.Otable.iter (fun _ _ -> ()) t
let lookup t k = Hashtbl.find_opt t k
