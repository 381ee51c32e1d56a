(* Naked failures and raw std-channel printing: every binding below trips
   exactly one naked-failwith or naked-print key, applied or passed as a
   value, and test_analysis asserts the exact keys. Never called. *)

let fail_applied () = failwith "boom"
let fail_unapplied x = x |> failwith
let unreachable () = assert false
let out_printf () = Printf.printf "hi"
let err_eprintf () = Printf.eprintf "oops %d" 3
let out_endline s = print_endline s
let err_endline_unapplied s = s |> prerr_endline
let out_string s = print_string s
let err_string s = prerr_string s
