(* A [Node]'s inline record is its own block: linking one boxes nothing. *)
type ('k, 'v) link =
  | Nil
  | Node of {
      n_key : 'k;
      n_value : 'v;
      mutable n_prev : ('k, 'v) link;
      mutable n_next : ('k, 'v) link;
    }

type ('k, 'v) t = {
  tbl : ('k, ('k, 'v) link) Hashtbl.t;  (* every value a [Node] *)
  mutable first : ('k, 'v) link;
  mutable last : ('k, 'v) link;
}

let create ?(size = 64) () = { tbl = Hashtbl.create size; first = Nil; last = Nil }

let length t = Hashtbl.length t.tbl
let is_empty t = Hashtbl.length t.tbl = 0
let mem t key = Hashtbl.mem t.tbl key

let find t key = match Hashtbl.find t.tbl key with Node n -> n.n_value | Nil -> raise Not_found

let unlink t = function
  | Nil -> ()
  | Node n ->
      (match n.n_prev with Node p -> p.n_next <- n.n_next | Nil -> t.first <- n.n_next);
      (match n.n_next with Node x -> x.n_prev <- n.n_prev | Nil -> t.last <- n.n_prev);
      n.n_prev <- Nil;
      n.n_next <- Nil

let remove t key =
  match Hashtbl.find t.tbl key with
  | exception Not_found -> ()
  | node ->
      Hashtbl.remove t.tbl key;
      unlink t node

let add t key value =
  remove t key;
  let node = Node { n_key = key; n_value = value; n_prev = t.last; n_next = Nil } in
  Hashtbl.replace t.tbl key node;
  (match t.last with Node l -> l.n_next <- node | Nil -> t.first <- node);
  t.last <- node

let iter f t =
  let rec go = function
    | Nil -> ()
    | Node n ->
        let next = n.n_next in
        f n.n_key n.n_value;
        go next
  in
  go t.first

let clear t =
  Hashtbl.reset t.tbl;
  t.first <- Nil;
  t.last <- Nil

(* Walked from the newest back, so the lists come out oldest first. *)
let rec values_to acc = function Nil -> acc | Node n -> values_to (n.n_value :: acc) n.n_prev
let rec keys_to acc = function Nil -> acc | Node n -> keys_to (n.n_key :: acc) n.n_prev
let to_list t = values_to [] t.last
let keys t = keys_to [] t.last
