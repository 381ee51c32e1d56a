exception Bug of string

let fail fmt = Format.kasprintf (fun s -> raise (Bug s)) fmt
