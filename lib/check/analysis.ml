(* Typed domain-safety, determinism and dead-export analysis over .cmt
   artifacts.

   The per-unit pass is two-phase. Phase A indexes every record
   declaration in the analyzed unit set (fully qualified, submodules
   included) and whether it is mutable — a [mutable] field, or a field of
   a known-mutable container type. Phase B walks each unit's typedtree:
   top-level value bindings are classified by *type* (hazard / safe /
   immutable), and an expression iterator applies the use-site rules with
   the enclosing binding name in hand so findings get stable,
   location-independent keys. The cross-unit rules then match each
   analyzed unit's .mli exports against one reference index built from
   the typedtrees of every user unit.

   Everything here is compiler-libs (Cmt_format / Typedtree / Types)
   against the OCaml the tree builds with; there is no fallback parsing
   — the pass needs the .cmt artifacts of a build. *)

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

let rule_id = function
  | Mutable_global -> "mutable-global"
  | Nondet_random -> "nondet-random"
  | Nondet_wallclock -> "nondet-wallclock"
  | Nondet_domain -> "nondet-domain-id"
  | Hashtbl_order -> "hashtbl-order"
  | Poly_compare_seq -> "poly-compare-seq"
  | Hot_alloc -> "hot-alloc"
  | Naked_failwith -> "naked-failwith"
  | Naked_print -> "naked-print"
  | Dead_export -> "dead-export"
  | Dead_optional -> "dead-optional"

type finding = {
  a_rule : rule;
  a_file : string;
  a_line : int;
  a_col : int;
  a_module : string;
  a_symbol : string;
  a_message : string;
}

let key f = rule_id f.a_rule ^ " " ^ f.a_module ^ "." ^ f.a_symbol

let pp_finding ppf f =
  Format.fprintf ppf "%s:%d:%d: [%s] %s.%s: %s" f.a_file f.a_line f.a_col
    (rule_id f.a_rule) f.a_module f.a_symbol f.a_message

(* ------------------------------------------------------------------ *)
(* Names                                                               *)

(* Dune mangles wrapped-library units as [Smapp_obs__Trace]; the same
   mangling shows up in cross-unit paths inside types. Normalize every
   "__" to "." so keys read as the source spells them. *)
let normalize name =
  let buf = Buffer.create (String.length name) in
  let n = String.length name in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && name.[!i] = '_' && name.[!i + 1] = '_' then begin
      Buffer.add_char buf '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char buf name.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* "Stdlib.Sys.time" -> "Sys.time" for symbol suffixes. *)
let short_path n =
  if starts_with ~prefix:"Stdlib." n then
    String.sub n 7 (String.length n - 7)
  else n

(* ------------------------------------------------------------------ *)
(* Unit loading                                                        *)

type unit_info = {
  u_id : string; (* as the compiler spells it, e.g. "Smapp_obs__Trace" *)
  u_name : string; (* normalized, e.g. "Smapp_obs.Trace" *)
  u_file : string; (* source path as recorded in the cmt *)
  u_path : string; (* the .cmt itself *)
  u_str : Typedtree.structure;
}

let load_unit path =
  match Cmt_format.read_cmt path with
  | exception _ -> None
  | cmt -> (
      match cmt.Cmt_format.cmt_annots with
      | Cmt_format.Implementation str ->
          let src =
            match cmt.Cmt_format.cmt_sourcefile with
            | Some s -> s
            | None -> path
          in
          let id = cmt.Cmt_format.cmt_modname in
          Some { u_id = id; u_name = normalize id; u_file = src; u_path = path; u_str = str }
      | _ -> None)

let scan ~root =
  let acc = ref [] in
  let rec go dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> ()
    | entries ->
        Array.sort String.compare entries;
        Array.iter
          (fun e ->
            let p = Filename.concat dir e in
            if Sys.is_directory p then go p
            else if Filename.check_suffix e ".cmt" then acc := p :: !acc)
          entries
  in
  if Sys.file_exists root && Sys.is_directory root then go root;
  List.sort String.compare !acc

let default_root () =
  let has_cmts d = scan ~root:d <> [] in
  let build = Filename.concat (Filename.concat "_build" "default") "lib" in
  if has_cmts build then Some build else if has_cmts "lib" then Some "lib" else None

(* ------------------------------------------------------------------ *)
(* Phase A: record mutability                                          *)

(* Containers whose very constructor makes a value mutable. *)
let mutable_constrs =
  [
    "Stdlib.ref";
    "ref";
    "Stdlib.Hashtbl.t";
    "Stdlib.Buffer.t";
    "Stdlib.Queue.t";
    "Stdlib.Stack.t";
    "Stdlib.Random.State.t";
    "array";
    "bytes";
    "Stdlib.Bytes.t";
  ]

(* Synchronization primitives: holding one at top level is the sanctioned
   pattern, not a hazard. *)
let safe_constrs =
  [
    ("Stdlib.Atomic.t", "Atomic.t");
    ("Stdlib.Mutex.t", "Mutex.t");
    ("Stdlib.Condition.t", "Condition.t");
    ("Stdlib.Semaphore.Counting.t", "Semaphore");
    ("Stdlib.Semaphore.Binary.t", "Semaphore");
    ("Stdlib.Domain.DLS.key", "DLS key");
  ]

type tables = {
  records : (string, bool) Hashtbl.t;
  (* "Unit.H" -> "Stdlib.Hashtbl": module aliases, so a use-site path
     like "H.iter" resolves to the real module before rule matching. *)
  aliases : (string, string) Hashtbl.t;
}

(* Resolve the leading module components of [name] (as seen inside
   [unit_name]) through the alias table, e.g. "H.iter" ->
   "Stdlib.Hashtbl.iter". Depth-capped against alias chains/cycles. *)
let resolve tables unit_name name =
  let rec go depth name =
    if depth > 4 then name
    else
      let head, rest =
        match String.index_opt name '.' with
        | None -> (name, "")
        | Some i ->
            (String.sub name 0 i, String.sub name i (String.length name - i))
      in
      match Hashtbl.find_opt tables.aliases (unit_name ^ "." ^ head) with
      | Some target -> go (depth + 1) (target ^ rest)
      | None -> name
  in
  go 0 name

let field_is_mutable_container ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> List.mem (normalize (Path.name p)) mutable_constrs
  | _ -> false

let rec unwrap_module_expr (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Typedtree.Tmod_structure s -> Some s
  | Typedtree.Tmod_constraint (m, _, _, _) -> unwrap_module_expr m
  | _ -> None

let rec module_alias_target (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Typedtree.Tmod_ident (p, _) -> Some (normalize (Path.name p))
  | Typedtree.Tmod_constraint (m, _, _, _) -> module_alias_target m
  | _ -> None

let index_unit_types tables u =
  let rec items prefix its = List.iter (item prefix) its
  and item prefix (si : Typedtree.structure_item) =
    match si.str_desc with
    | Typedtree.Tstr_type (_, tds) ->
        List.iter
          (fun (td : Typedtree.type_declaration) ->
            match td.typ_kind with
            | Typedtree.Ttype_record lds ->
                let hazardous =
                  List.exists
                    (fun (ld : Typedtree.label_declaration) ->
                      ld.ld_mutable = Asttypes.Mutable
                      || field_is_mutable_container ld.ld_type.ctyp_type)
                    lds
                in
                Hashtbl.replace tables.records
                  (prefix ^ Ident.name td.typ_id)
                  hazardous
            | _ -> ())
          tds
    | Typedtree.Tstr_module mb -> (
        match mb.mb_id with
        | None -> ()
        | Some id -> (
            match unwrap_module_expr mb.mb_expr with
            | Some s -> items (prefix ^ Ident.name id ^ ".") s.str_items
            | None -> (
                match module_alias_target mb.mb_expr with
                | Some target ->
                    Hashtbl.replace tables.aliases (prefix ^ Ident.name id) target
                | None -> ())))
    | Typedtree.Tstr_recmodule mbs ->
        List.iter
          (fun (mb : Typedtree.module_binding) ->
            match (mb.mb_id, unwrap_module_expr mb.mb_expr) with
            | Some id, Some s -> items (prefix ^ Ident.name id ^ ".") s.str_items
            | _ -> ())
          mbs
    | _ -> ()
  in
  items (u.u_name ^ ".") u.u_str.str_items

let build_tables units =
  let tables = { records = Hashtbl.create 256; aliases = Hashtbl.create 32 } in
  List.iter (index_unit_types tables) units;
  tables

(* A type name as it appears inside unit [unit_name]: either already
   qualified across units ("Smapp_sim.Otable.t") or local ("metric",
   "Scope.t") which resolves under the unit's own prefix. *)
let lookup_record tables unit_name name =
  match Hashtbl.find_opt tables.records name with
  | Some v -> Some v
  | None -> Hashtbl.find_opt tables.records (unit_name ^ "." ^ name)

(* ------------------------------------------------------------------ *)
(* Phase B: classification                                             *)

type verdict = Imm | Safe of string | Hazard of string

let rec classify tables unit_name depth ty =
  if depth > 6 then Imm
  else
    match Types.get_desc ty with
    | Types.Tconstr (p, args, _) -> (
        let n = resolve tables unit_name (normalize (Path.name p)) in
        match List.assoc_opt n safe_constrs with
        | Some what -> Safe what
        | None ->
            if List.mem n mutable_constrs then Hazard (short_path n)
            else if lookup_record tables unit_name n = Some true then
              Hazard (short_path n ^ " (record with mutable fields)")
            else classify_list tables unit_name depth args)
    | Types.Ttuple tys -> classify_list tables unit_name depth tys
    | _ -> Imm

and classify_list tables unit_name depth tys =
  List.fold_left
    (fun acc ty ->
      match acc with
      | Hazard _ -> acc
      | _ -> (
          match classify tables unit_name (depth + 1) ty with
          | Hazard _ as h -> h
          | Safe _ as s -> s
          | Imm -> acc))
    Imm tys

(* ------------------------------------------------------------------ *)
(* Phase B: expression rules                                           *)

let wallclock_paths = [ "Stdlib.Sys.time"; "Unix.gettimeofday"; "Unix.time" ]

let compare_paths =
  [
    "Stdlib.=";
    "Stdlib.<>";
    "Stdlib.==";
    "Stdlib.!=";
    "Stdlib.<";
    "Stdlib.>";
    "Stdlib.<=";
    "Stdlib.>=";
    "Stdlib.compare";
    "Stdlib.min";
    "Stdlib.max";
  ]

(* Raw std-channel printers; [Printf.sprintf]/[fprintf] and [Format]
   build strings or write to a channel the caller chose, so they stay
   clean. *)
let print_paths =
  [
    "Stdlib.Printf.printf";
    "Stdlib.Printf.eprintf";
    "Stdlib.print_endline";
    "Stdlib.prerr_endline";
    "Stdlib.print_string";
    "Stdlib.prerr_string";
  ]

let is_global_random n =
  starts_with ~prefix:"Stdlib.Random." n
  && not (starts_with ~prefix:"Stdlib.Random.State." n)

let is_seq32 tables unit_name ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) ->
      resolve tables unit_name (normalize (Path.name p)) = "Smapp_tcp.Seq32.t"
  | _ -> false

(* emit: rule -> loc -> symbol-suffix -> message *)
let expr_rules ~tables ~unit_name ~enclosing ~emit expr =
  let ident_rules n loc =
    if is_global_random n then
      emit Nondet_random loc
        (enclosing ^ ":" ^ short_path n)
        (Printf.sprintf
           "%s draws from the global Random state; plumb an explicit \
            Random.State.t from Engine.split_rng instead"
           (short_path n))
    else if List.mem n wallclock_paths then
      emit Nondet_wallclock loc
        (enclosing ^ ":" ^ short_path n)
        (Printf.sprintf
           "%s reads the wall clock; simulation logic must use the \
            engine's virtual clock"
           (short_path n))
    else if n = "Stdlib.Domain.self" then
      emit Nondet_domain loc
        (enclosing ^ ":Domain.self")
        "Domain.self used as data varies with lane placement; derive \
         identity from job/shard indices instead"
    else if n = "Stdlib.failwith" then
      emit Naked_failwith loc (enclosing ^ ":failwith")
        "raise Bug.fail (invariant) or a typed error instead of failwith"
    else if List.mem n print_paths then
      emit Naked_print loc
        (enclosing ^ ":" ^ short_path n)
        "return the text or print to a formatter the caller passes in, \
         instead of writing to the raw std channels"
  in
  let iter = ref Tast_iterator.default_iterator in
  let expr_case (it : Tast_iterator.iterator) (e : Typedtree.expression) =
    (match e.exp_desc with
    | Typedtree.Texp_apply ({ exp_desc = Typedtree.Texp_ident (p, _, _); _ }, args) ->
        let n = resolve tables unit_name (normalize (Path.name p)) in
        if n = "Stdlib.Hashtbl.iter" || n = "Stdlib.Hashtbl.fold" then
          emit Hashtbl_order e.exp_loc
            (enclosing ^ ":" ^ short_path n)
            (Printf.sprintf
               "%s visits bindings in hash order; iterate a sorted key \
                list (or use Otable) for deterministic output"
               (short_path n));
        if
          List.mem n compare_paths
          && List.exists
               (fun (_, arg) ->
                 match arg with
                 | Some (a : Typedtree.expression) ->
                     is_seq32 tables unit_name a.exp_type
                 | None -> false)
               args
        then
          emit Poly_compare_seq e.exp_loc
            (enclosing ^ ":" ^ short_path n)
            (Printf.sprintf
               "polymorphic %s on a Seq32.t operand ignores sequence \
                wraparound; use Seq32.compare/eq/lt"
               (short_path n))
        (* the ident rules fire when recursion reaches the function ident
           itself; firing here too would double-count the site *)
    | Typedtree.Texp_ident (p, _, _) ->
        ident_rules (resolve tables unit_name (normalize (Path.name p))) e.exp_loc
    | Typedtree.Texp_assert
        ( { exp_desc = Typedtree.Texp_construct (_, { cstr_name = "false"; _ }, []); _ },
          _ ) ->
        emit Naked_failwith e.exp_loc
          (enclosing ^ ":assert-false")
          "assert false marks unreachable code without saying why; use \
           Bug.fail with the violated invariant"
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  iter := { Tast_iterator.default_iterator with expr = expr_case };
  !iter.expr !iter expr

(* ------------------------------------------------------------------ *)
(* Phase B: hot-path allocation                                        *)

let hot_attr_names = [ "smapp.hot"; "smapp.hot_path" ]

let is_hot (vb : Typedtree.value_binding) =
  List.exists
    (fun (a : Parsetree.attribute) -> List.mem a.attr_name.txt hot_attr_names)
    vb.vb_attributes

(* Bodies of a (curried, possibly multi-case) function — the parameter
   Texp_function spine itself is the function being defined, not an
   allocation in it. A [let] is spine-transparent: optional-argument
   defaults desugar to one between parameters, and a trailing
   [fun ...] after a let still extends the function's arity. The let's
   own bindings are real body content. *)
let rec function_bodies (e : Typedtree.expression) acc =
  match e.exp_desc with
  | Typedtree.Texp_function { cases; _ } ->
      List.fold_left
        (fun acc (c : _ Typedtree.case) -> function_bodies c.c_rhs acc)
        acc cases
  | Typedtree.Texp_let (_, vbs, body) ->
      let acc =
        List.fold_left
          (fun acc (vb : Typedtree.value_binding) -> vb.vb_expr :: acc)
          acc vbs
      in
      function_bodies body acc
  | _ -> e :: acc

let hot_alloc_rules ~enclosing ~emit (vb : Typedtree.value_binding) =
  let closures = ref [] and records = ref [] in
  let iter = ref Tast_iterator.default_iterator in
  let expr_case (it : Tast_iterator.iterator) (e : Typedtree.expression) =
    (match e.exp_desc with
    | Typedtree.Texp_function _ -> closures := e.exp_loc :: !closures
    | Typedtree.Texp_record _ -> records := e.exp_loc :: !records
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  iter := { Tast_iterator.default_iterator with expr = expr_case };
  List.iter (fun body -> !iter.expr !iter body) (function_bodies vb.vb_expr []);
  let report kind locs noun =
    match List.rev locs with
    | [] -> ()
    | first :: _ as all ->
        emit Hot_alloc first
          (enclosing ^ ":" ^ kind)
          (Printf.sprintf
             "[@@smapp.hot] function allocates %d %s per call; hoist or \
              pool it, or allowlist with a justification (ROADMAP item 2)"
             (List.length all) noun)
  in
  report "closure" !closures "closure(s)";
  report "record" !records "record(s)"

(* ------------------------------------------------------------------ *)
(* Phase B: walking a unit                                             *)

let collect_unit tables u =
  let acc = ref [] in
  let emit rule (loc : Location.t) symbol message =
    let pos = loc.loc_start in
    acc :=
      {
        a_rule = rule;
        a_file = u.u_file;
        a_line = pos.Lexing.pos_lnum;
        a_col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
        a_module = u.u_name;
        a_symbol = symbol;
        a_message = message;
      }
      :: !acc
  in
  let rec items prefix its = List.iter (item prefix) its
  and item prefix (si : Typedtree.structure_item) =
    match si.str_desc with
    | Typedtree.Tstr_value (_, vbs) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            let name =
              match Typedtree.pat_bound_idents vb.vb_pat with
              | id :: _ -> Ident.name id
              | [] -> "_"
            in
            let qname = prefix ^ name in
            (match classify tables u.u_name 0 vb.vb_pat.pat_type with
            | Hazard what ->
                emit Mutable_global vb.vb_pat.pat_loc qname
                  (Printf.sprintf
                     "top-level %s is mutable state shared across domains; \
                      use Atomic.t, hold it in a DLS scope, or allowlist \
                      it with a written justification"
                     what)
            | Safe _ | Imm -> ());
            expr_rules ~tables ~unit_name:u.u_name ~enclosing:qname ~emit
              vb.vb_expr;
            if is_hot vb then hot_alloc_rules ~enclosing:qname ~emit vb)
          vbs
    | Typedtree.Tstr_eval (e, _) ->
        expr_rules ~tables ~unit_name:u.u_name ~enclosing:(prefix ^ "_") ~emit e
    | Typedtree.Tstr_module mb -> (
        match (mb.mb_id, unwrap_module_expr mb.mb_expr) with
        | Some id, Some s -> items (prefix ^ Ident.name id ^ ".") s.str_items
        | _ -> ())
    | Typedtree.Tstr_recmodule mbs ->
        List.iter
          (fun (mb : Typedtree.module_binding) ->
            match (mb.mb_id, unwrap_module_expr mb.mb_expr) with
            | Some id, Some s -> items (prefix ^ Ident.name id ^ ".") s.str_items
            | _ -> ())
          mbs
    | _ -> ()
  in
  items "" u.u_str.str_items;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Cross-unit rules: dead-export / dead-optional                       *)

(* A value some unit's .mli exports, with both uids that name it: its
   declaration in the .cmti, which other units see through the .cmi,
   and its definition in the .cmt, which the unit's own code applies.
   Matching by uid rather than by path makes [module X = Y], [open] and
   dune's library wrappers transparent. The two uids are numbered
   independently within one unit, so each is only ever matched against
   references of its own kind. *)
type export = {
  x_module : string;
  x_symbol : string; (* "pending", or "Scope.key" inside a submodule *)
  x_file : string;
  x_loc : Location.t;
  x_decl : Shape.Uid.t;
  x_def : Shape.Uid.t option;
  x_optionals : string list;
}

let rec optional_labels ty =
  match Types.get_desc ty with
  | Types.Tarrow (Asttypes.Optional l, _, ret, _) -> l :: optional_labels ret
  | Types.Tarrow (_, _, ret, _) -> optional_labels ret
  | _ -> []

(* The exports of [u], read from the .cmti next to its .cmt; a unit
   without an .mli exports nothing this rule checks. *)
let unit_exports u =
  let cmti = Filename.remove_extension u.u_path ^ ".cmti" in
  match Cmt_format.read_cmt cmti with
  | exception _ -> []
  | { Cmt_format.cmt_annots = Cmt_format.Interface sg; cmt_sourcefile; _ } ->
      let defs = Hashtbl.create 64 in
      let rec structure prefix (s : Typedtree.structure) =
        List.iter
          (function
            | Types.Sig_value (id, vd, _) ->
                Hashtbl.replace defs (prefix ^ Ident.name id) vd.Types.val_uid
            | _ -> ())
          s.str_type;
        List.iter
          (fun (si : Typedtree.structure_item) ->
            match si.str_desc with
            | Typedtree.Tstr_module { mb_id = Some id; mb_expr; _ } ->
                Option.iter
                  (structure (prefix ^ Ident.name id ^ "."))
                  (unwrap_module_expr mb_expr)
            | _ -> ())
          s.str_items
      in
      structure "" u.u_str;
      let file = Option.value cmt_sourcefile ~default:cmti in
      let rec signature prefix (sg : Typedtree.signature) =
        List.concat_map
          (fun (si : Typedtree.signature_item) ->
            match si.sig_desc with
            | Typedtree.Tsig_value vd ->
                let symbol = prefix ^ vd.val_name.txt in
                [
                  {
                    x_module = u.u_name;
                    x_symbol = symbol;
                    x_file = file;
                    x_loc = vd.val_loc;
                    x_decl = vd.val_val.val_uid;
                    x_def = Hashtbl.find_opt defs symbol;
                    x_optionals = optional_labels vd.val_val.val_type;
                  };
                ]
            | Typedtree.Tsig_module
                { md_id = Some id; md_type = { mty_desc = Typedtree.Tmty_signature sg; _ }; _ } ->
                signature (prefix ^ Ident.name id ^ ".") sg
            | _ -> [])
          sg.sig_items
      in
      signature "" sg
  | _ -> []

(* Every value reference made from a unit other than the one that
   defines the value, and every (function, optional label) pair some
   application passes explicitly, split by whether the function is the
   applying unit's own (a definition uid) or another unit's (a
   declaration uid). An optional argument the caller left out is still
   in the typedtree's argument list, as a ghost-located [None]; only a
   real location is a caller passing it. *)
type refs = {
  cross : (Shape.Uid.t, unit) Hashtbl.t;
  passed_cross : (Shape.Uid.t * string, unit) Hashtbl.t;
  passed_local : (Shape.Uid.t * string, unit) Hashtbl.t;
}

let is_local u (uid : Shape.Uid.t) =
  match uid with
  | Shape.Uid.Item { comp_unit; _ } -> String.equal comp_unit u.u_id
  | _ -> true

let index_refs refs u =
  let expr (it : Tast_iterator.iterator) (e : Typedtree.expression) =
    (match e.exp_desc with
    | Typedtree.Texp_ident (_, _, vd) when not (is_local u vd.val_uid) ->
        Hashtbl.replace refs.cross vd.val_uid ()
    | Typedtree.Texp_apply ({ exp_desc = Typedtree.Texp_ident (_, _, vd); _ }, args) ->
        let passed = if is_local u vd.val_uid then refs.passed_local else refs.passed_cross in
        List.iter
          (function
            | Asttypes.Optional l, Some (a : Typedtree.expression)
              when not a.exp_loc.loc_ghost ->
                Hashtbl.replace passed (vd.val_uid, l) ()
            | _ -> ())
          args
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.structure it u.u_str

(* dead-export for every export of [units] that no unit of [users]
   other than its own references; dead-optional for every optional
   parameter of a live export that no application in [users] passes. *)
let export_findings units users =
  let refs =
    {
      cross = Hashtbl.create 4096;
      passed_cross = Hashtbl.create 512;
      passed_local = Hashtbl.create 512;
    }
  in
  List.iter (index_refs refs) users;
  let finding rule x symbol message =
    let pos = x.x_loc.loc_start in
    {
      a_rule = rule;
      a_file = x.x_file;
      a_line = pos.Lexing.pos_lnum;
      a_col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
      a_module = x.x_module;
      a_symbol = symbol;
      a_message = message;
    }
  in
  List.concat_map
    (fun x ->
      if not (Hashtbl.mem refs.cross x.x_decl) then
        [
          finding Dead_export x x.x_symbol
            "exported, but no other unit references it; drop the val";
        ]
      else
        List.filter_map
          (fun l ->
            if
              Hashtbl.mem refs.passed_cross (x.x_decl, l)
              || Option.fold x.x_def ~none:false ~some:(fun d ->
                     Hashtbl.mem refs.passed_local (d, l))
            then None
            else
              Some
                (finding Dead_optional x
                   (x.x_symbol ^ ":?" ^ l)
                   (Printf.sprintf
                      "no application anywhere passes ?%s; inline its default" l)))
          x.x_optionals)
    (List.concat_map unit_exports units)

(* ------------------------------------------------------------------ *)
(* Allowlist                                                           *)

type allowlist = (string * string) list (* key -> justification *)

let empty_allowlist = []
let allowlist_of_entries entries = entries

let split_on_marker line =
  (* first " -- " occurrence splits entry from justification *)
  let n = String.length line in
  let rec find i =
    if i + 4 > n then None
    else if String.sub line i 4 = " -- " then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i ->
      Some (String.sub line 0 i, String.sub line (i + 4) (n - i - 4))

let load_allowlist path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
      let rec go lineno acc =
        match input_line ic with
        | exception End_of_file -> Ok (List.rev acc)
        | line ->
            let t = String.trim line in
            if t = "" || t.[0] = '#' then go (lineno + 1) acc
            else (
              match split_on_marker t with
              | None ->
                  close_in ic;
                  Error
                    (Printf.sprintf
                       "%s:%d: missing ' -- <justification>' (every \
                        suppression must say why)"
                       path lineno)
              | Some (entry, just) ->
                  let entry = String.trim entry and just = String.trim just in
                  if just = "" then begin
                    close_in ic;
                    Error
                      (Printf.sprintf "%s:%d: empty justification" path lineno)
                  end
                  else if
                    (* entry must be "<rule-id> <Module.symbol>" *)
                    not (String.contains entry ' ')
                  then begin
                    close_in ic;
                    Error
                      (Printf.sprintf
                         "%s:%d: entry must be '<rule-id> <Module.symbol>'"
                         path lineno)
                  end
                  else go (lineno + 1) ((entry, just) :: acc))
      in
      let r = go 1 [] in
      (try close_in ic with Sys_error _ -> ());
      r

(* ------------------------------------------------------------------ *)
(* Report assembly                                                     *)

type report = {
  r_findings : finding list;
  r_allowlisted : (finding * string) list;
  r_stale_allow : string list;
  r_units : int;
}

let compare_finding a b =
  let c = String.compare a.a_file b.a_file in
  if c <> 0 then c
  else
    let c = Int.compare a.a_line b.a_line in
    if c <> 0 then c
    else
      let c = Int.compare a.a_col b.a_col in
      if c <> 0 then c else String.compare (key a) (key b)

(* Merge same-key occurrences into one finding anchored at the first
   location, annotating the count. *)
let dedup occs =
  let occs = List.sort compare_finding occs in
  let seen = Hashtbl.create 64 in
  let out =
    List.filter
      (fun f ->
        let k = key f in
        match Hashtbl.find_opt seen k with
        | Some n ->
            Hashtbl.replace seen k (n + 1);
            false
        | None ->
            Hashtbl.add seen k 1;
            true)
      occs
  in
  List.map
    (fun f ->
      match Hashtbl.find_opt seen (key f) with
      | Some n when n > 1 ->
          { f with a_message = Printf.sprintf "%s (%d sites)" f.a_message n }
      | _ -> f)
    out

(* [units] are analyzed; [users] are every unit whose references keep
   an export of [units] alive. *)
let analyze ~allowlist ~units ~users =
  let units = List.sort (fun a b -> String.compare a.u_name b.u_name) units in
  let tables = build_tables units in
  let occs =
    List.concat_map (collect_unit tables) units @ export_findings units users
  in
  let findings = dedup occs in
  let used = Hashtbl.create 16 in
  let suppressed, kept =
    List.partition_map
      (fun f ->
        match List.assoc_opt (key f) allowlist with
        | Some just ->
            Hashtbl.replace used (key f) ();
            Either.Left (f, just)
        | None -> Either.Right f)
      findings
  in
  let stale =
    List.filter_map
      (fun (k, _) -> if Hashtbl.mem used k then None else Some k)
      allowlist
  in
  {
    r_findings = kept;
    r_allowlisted = suppressed;
    r_stale_allow = stale;
    r_units = List.length units;
  }

let run_files ?(allowlist = empty_allowlist) files =
  let units = List.filter_map load_unit files in
  analyze ~allowlist ~units ~users:units

let run ?(allowlist = empty_allowlist) ~root () =
  analyze ~allowlist
    ~units:(List.filter_map load_unit (scan ~root))
    ~users:(List.filter_map load_unit (scan ~root:(Filename.dirname root)))

let keys report =
  List.sort_uniq String.compare (List.map key report.r_findings)
