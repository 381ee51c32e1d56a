type ('k, 'v) node = {
  n_key : 'k;
  n_value : 'v;
  mutable n_prev : ('k, 'v) node option;
  mutable n_next : ('k, 'v) node option;
}

type ('k, 'v) t = {
  tbl : ('k, ('k, 'v) node) Hashtbl.t;
  mutable first : ('k, 'v) node option;
  mutable last : ('k, 'v) node option;
}

let create ?(size = 64) () = { tbl = Hashtbl.create size; first = None; last = None }

let length t = Hashtbl.length t.tbl
let is_empty t = Hashtbl.length t.tbl = 0
let mem t key = Hashtbl.mem t.tbl key
let find t key = match Hashtbl.find t.tbl key with n -> Some n.n_value | exception Not_found -> None

let unlink t node =
  (match node.n_prev with
  | Some p -> p.n_next <- node.n_next
  | None -> t.first <- node.n_next);
  (match node.n_next with
  | Some n -> n.n_prev <- node.n_prev
  | None -> t.last <- node.n_prev);
  node.n_prev <- None;
  node.n_next <- None

let remove t key =
  match Hashtbl.find t.tbl key with
  | exception Not_found -> ()
  | node ->
      Hashtbl.remove t.tbl key;
      unlink t node

let add t key value =
  remove t key;
  let node = { n_key = key; n_value = value; n_prev = t.last; n_next = None } in
  Hashtbl.replace t.tbl key node;
  (match t.last with Some l -> l.n_next <- Some node | None -> t.first <- Some node);
  t.last <- Some node

let iter f t =
  let rec go = function
    | None -> ()
    | Some node ->
        let next = node.n_next in
        f node.n_key node.n_value;
        go next
  in
  go t.first

let fold f t acc =
  let acc = ref acc in
  iter (fun k v -> acc := f k v !acc) t;
  !acc

let clear t =
  Hashtbl.reset t.tbl;
  t.first <- None;
  t.last <- None

let to_list t = List.rev (fold (fun _ v acc -> v :: acc) t [])
let keys t = List.rev (fold (fun k _ acc -> k :: acc) t [])
