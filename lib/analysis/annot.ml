module Ast = Tailspace_ast.Ast
module Iset = Ast.Iset

type call_info = {
  elems : Iset.t array;
  ltr_first : Iset.t;
  ltr_rest : Iset.t list;
  rtl_first : Iset.t;
  rtl_rest : Iset.t list;
}

(* The walk fills [site]; the sets stay [None] until a lookup first
   asks for them, and are then kept. *)
type node = {
  site : int;
      (* stable node id, assigned in table-insertion (post-)order: two
         machines that record the same programs in the same order agree
         on every id even when gensym'd identifier names differ — the
         provenance layer's cross-engine census key *)
  mutable fv : Iset.t option;
  mutable branch : Iset.t option;  (* [If] nodes only *)
  mutable call : call_info option;  (* [Call] nodes only *)
}

(* Keyed by physical identity: the expander never rebuilds equal nodes
   it could share, and structural keys would give distinct occurrences
   one site id. *)
module Node_table = Hashtbl.Make (struct
  type t = Ast.expr

  let equal = ( == )
  let hash = Hashtbl.hash
end)

(* Keyed by the set itself: no encoding of the elements can collide,
   whatever bytes an identifier holds. *)
module Set_table = Hashtbl.Make (struct
  type t = Iset.t

  let equal = Iset.equal
  let hash s = Iset.fold (fun x h -> Hashtbl.seeded_hash h x) s 0
end)

type t = {
  table : node Node_table.t;
  interned : Iset.t Set_table.t;
  mutable sites : Ast.expr array;
      (* site id -> the node it names; stale whenever its length is not
         the node count, and then rebuilt by the next [site_expr] *)
}

let create () =
  {
    table = Node_table.create 256;
    interned = Set_table.create 64;
    sites = [||];
  }

let intern t s =
  match Set_table.find_opt t.interned s with
  | Some canonical -> canonical
  | None ->
      Set_table.add t.interned s s;
      s

(* Restriction sets for one call: [sets.(k)] = FV of subexpressions
   [k..n-1] for suffixes, [0..k-1] for prefixes; both have the empty set
   at the degenerate index so the frame created for the last pending
   subexpression is restricted to nothing. *)
let make_call_info t elems =
  let n = Array.length elems in
  let suffix = Array.make (n + 1) Iset.empty in
  for k = n - 1 downto 0 do
    suffix.(k) <- intern t (Iset.union elems.(k) suffix.(k + 1))
  done;
  let prefix = Array.make (n + 1) Iset.empty in
  for k = 1 to n do
    prefix.(k) <- intern t (Iset.union prefix.(k - 1) elems.(k - 1))
  done;
  (* Left-to-right evaluates indices [0; 1; ...]: when index [k] becomes
     pending the frame keeps FV of the still-unevaluated suffix
     [k+1..n-1]. Right-to-left evaluates [n-1; n-2; ...] and keeps the
     prefix [0..n-k-2]. The [_rest] lists line up with the machine's
     [remaining] list: one set per later frame, ending in the empty
     set. *)
  {
    elems;
    ltr_first = suffix.(1);
    ltr_rest = List.init (n - 1) (fun k -> suffix.(k + 2));
    rtl_first = prefix.(n - 1);
    rtl_rest = List.init (n - 1) (fun k -> prefix.(n - 2 - k));
  }

let seeded_sets ci rest_indices =
  let rec build = function
    | [] -> (Iset.empty, [])
    | i :: rest ->
        let after, sets = build rest in
        (Iset.union ci.elems.(i) after, after :: sets)
  in
  build rest_indices

(* Post-order: a node's children are numbered before it. A node met
   again (shared structure, or a program recorded before) is skipped
   with its whole subtree, which was numbered with it. *)
let rec record t e =
  if not (Node_table.mem t.table e) then begin
    (match e with
    | Ast.Quote _ | Ast.Var _ -> ()
    | Ast.Lambda { body; _ } -> record t body
    | Ast.If (e0, e1, e2) ->
        record t e0;
        record t e1;
        record t e2
    | Ast.Set (_, e0) -> record t e0
    | Ast.Call (f, args) ->
        record t f;
        List.iter (record t) args);
    Node_table.add t.table e
      { site = Node_table.length t.table; fv = None; branch = None; call = None }
  end

(* Each set is built from the kept sets of the node's children the
   first time a lookup asks for it. Every descendant of a recorded node
   is recorded, so [fv_of] never misses below the node a caller
   found. *)

let rec fv_of t e = fv_node t e (Node_table.find t.table e)

and fv_node t e node =
  match node.fv with
  | Some s -> s
  | None ->
      let s =
        intern t
          (match e with
          | Ast.Quote _ -> Iset.empty
          | Ast.Var x -> Iset.singleton x
          | Ast.Lambda { params; rest; body } ->
              let bound =
                match rest with Some r -> r :: params | None -> params
              in
              Iset.diff (fv_of t body) (Iset.of_list bound)
          | Ast.If (e0, e1, e2) ->
              Iset.union (fv_of t e0) (Iset.union (fv_of t e1) (fv_of t e2))
          | Ast.Set (x, e0) -> Iset.add x (fv_of t e0)
          | Ast.Call (f, args) ->
              List.fold_left
                (fun acc a -> Iset.union acc (fv_of t a))
                (fv_of t f) args)
      in
      node.fv <- Some s;
      s

let free_vars t e =
  match Node_table.find_opt t.table e with
  | None -> None
  | Some node ->
      (* the kept option itself, so a lookup allocates nothing *)
      ignore (fv_node t e node);
      node.fv

let branch t e =
  match (e, Node_table.find_opt t.table e) with
  | Ast.If (_, e1, e2), Some node ->
      if Option.is_none node.branch then
        node.branch <- Some (intern t (Iset.union (fv_of t e1) (fv_of t e2)));
      node.branch
  | _ -> None

let call t e =
  match (e, Node_table.find_opt t.table e) with
  | Ast.Call (f, args), Some node ->
      if Option.is_none node.call then
        node.call <-
          Some
            (make_call_info t (Array.of_list (List.map (fv_of t) (f :: args))));
      node.call
  | _ -> None

let site_id t e =
  match Node_table.find_opt t.table e with
  | None -> None
  | Some n -> Some n.site

let site_expr t site =
  let n = Node_table.length t.table in
  if Array.length t.sites <> n then begin
    let sites = Array.make n (Ast.Quote Ast.C_nil) in
    Node_table.iter (fun e node -> sites.(node.site) <- e) t.table;
    t.sites <- sites
  end;
  if site >= 0 && site < n then Some t.sites.(site) else None

let nodes t = Node_table.length t.table
let distinct_sets t = Set_table.length t.interned
