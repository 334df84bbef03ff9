module Bignum = Tailspace_bignum.Bignum
module Ast = Tailspace_ast.Ast
module Env = Env

type loc = Env.loc

type value =
  | Bool of bool
  | Int of Bignum.t
  | Sym of string
  | Str of string
  | Char of char
  | Nil
  | Unspecified
  | Undefined
  | Pair of loc * loc
  | Vector of loc array
  | Closure of loc * Ast.lambda * Env.t
  | Escape of loc * cont
  | Primop of int

and cont =
  | Halt
  | Select of {
      e1 : Ast.expr;
      e2 : Ast.expr;
      env : Env.t;
      next : cont;
      size : int;
      depth : int;
      site : int;
          (* provenance site of the expression that pushed the frame;
             -1 when provenance is off. Sites are bookkeeping, not
             space: they never contribute to [size]. *)
    }
  | Assign of {
      id : string;
      env : Env.t;
      next : cont;
      size : int;
      depth : int;
      site : int;
    }
  | Push of {
      pending : int;
      remaining : (int * Ast.expr) list;
      evaluated : (int * value) list;
      fv_rest : Ast.Iset.t list;
          (* the I_sfs restriction sets from the annotation table, one
             per element of [remaining] (empty when not Sfs); holds no
             locations and no space *)
      env : Env.t;
      next : cont;
      size : int;
      depth : int;
      site : int;
    }
  | Call of {
      vals : value list;
      next : cont;
      size : int;
      depth : int;
      site : int;
    }
  | Return of {
      env : Env.t;
      next : cont;
      size : int;
      depth : int;
      site : int;
    }
  | Return_stack of {
      dels : loc list;
      env : Env.t;
      next : cont;
      size : int;
      depth : int;
      site : int;
    }

let cont_space = function
  | Halt -> 1
  | Select { size; _ }
  | Assign { size; _ }
  | Push { size; _ }
  | Call { size; _ }
  | Return { size; _ }
  | Return_stack { size; _ } ->
      size

(* Frame count of a continuation, cached like [size] so per-step depth
   observation is O(1). *)
let cont_depth = function
  | Halt -> 0
  | Select { depth; _ }
  | Assign { depth; _ }
  | Push { depth; _ }
  | Call { depth; _ }
  | Return { depth; _ }
  | Return_stack { depth; _ } ->
      depth

let select ?(site = -1) ~e1 ~e2 ~env ~next () =
  Select
    {
      e1;
      e2;
      env;
      next;
      size = 1 + Env.cardinal env + cont_space next;
      depth = 1 + cont_depth next;
      site;
    }

let assign ?(site = -1) ~id ~env ~next () =
  Assign
    {
      id;
      env;
      next;
      size = 1 + Env.cardinal env + cont_space next;
      depth = 1 + cont_depth next;
      site;
    }

(* Figure 7: 1 + m + n + |Dom rho| + space(kappa). The expression being
   evaluated ([pending]) is in the accumulator, not in the frame, so [m]
   counts only [remaining]. *)
let push ?(fv_rest = []) ?(site = -1) ~pending ~remaining ~evaluated ~env
    ~next () =
  let m = List.length remaining and n = List.length evaluated in
  Push
    {
      pending;
      remaining;
      evaluated;
      fv_rest;
      env;
      next;
      size = 1 + m + n + Env.cardinal env + cont_space next;
      depth = 1 + cont_depth next;
      site;
    }

let call ?(site = -1) ~vals ~next () =
  Call
    {
      vals;
      next;
      size = 1 + List.length vals + cont_space next;
      depth = 1 + cont_depth next;
      site;
    }

let return_gc ?(site = -1) ~env ~next () =
  Return
    {
      env;
      next;
      size = 1 + Env.cardinal env + cont_space next;
      depth = 1 + cont_depth next;
      site;
    }

let return_stack ?(site = -1) ~dels ~env ~next () =
  Return_stack
    {
      dels;
      env;
      next;
      size = 1 + Env.cardinal env + cont_space next;
      depth = 1 + cont_depth next;
      site;
    }

let value_space = function
  | Bool _ | Sym _ | Char _ | Nil | Unspecified | Undefined | Primop _ -> 1
  | Int z -> 1 + Bignum.bit_length z
  | Str s -> 1 + String.length s
  | Pair _ -> 3
  | Vector locs -> 1 + Array.length locs
  | Closure (_, _, env) -> 1 + Env.cardinal env
  | Escape (_, k) -> 1 + cont_space k

let value_of_const (c : Ast.const) =
  match c with
  | Ast.C_bool b -> Bool b
  | Ast.C_int z -> Int z
  | Ast.C_sym s -> Sym s
  | Ast.C_str s -> Str s
  | Ast.C_char c -> Char c
  | Ast.C_nil -> Nil
  | Ast.C_unspecified -> Unspecified
  | Ast.C_undefined -> Undefined

let rec value_locs_by ~env_locs = function
  | Bool _ | Int _ | Sym _ | Str _ | Char _ | Nil | Unspecified | Undefined
  | Primop _ ->
      []
  | Pair (a, d) -> [ a; d ]
  | Vector locs -> Array.to_list locs
  | Closure (tag, _, env) -> tag :: env_locs env
  | Escape (tag, k) -> tag :: cont_locs_acc ~env_locs [] k

and cont_locs_acc ~env_locs acc k =
  match k with
  | Halt -> acc
  | Select { env; next; _ } | Assign { env; next; _ } | Return { env; next; _ }
    ->
      cont_locs_acc ~env_locs (List.rev_append (env_locs env) acc) next
  | Push { evaluated; env; next; _ } ->
      let acc = List.rev_append (env_locs env) acc in
      let acc =
        List.fold_left
          (fun acc (_, v) -> List.rev_append (value_locs_by ~env_locs v) acc)
          acc evaluated
      in
      cont_locs_acc ~env_locs acc next
  | Call { vals; next; _ } ->
      let acc =
        List.fold_left
          (fun acc v -> List.rev_append (value_locs_by ~env_locs v) acc)
          acc vals
      in
      cont_locs_acc ~env_locs acc next
  | Return_stack { dels; env; next; _ } ->
      let acc = List.rev_append dels acc in
      cont_locs_acc ~env_locs (List.rev_append (env_locs env) acc) next

let value_locs v = value_locs_by ~env_locs:Env.locations v

let tag_of_value = function
  | Bool _ -> "boolean"
  | Int _ -> "number"
  | Sym _ -> "symbol"
  | Str _ -> "string"
  | Char _ -> "character"
  | Nil -> "empty list"
  | Unspecified -> "unspecified"
  | Undefined -> "undefined"
  | Pair _ -> "pair"
  | Vector _ -> "vector"
  | Closure _ -> "closure"
  | Escape _ -> "continuation"
  | Primop _ -> "primitive"
