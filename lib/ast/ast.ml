module Bignum = Tailspace_bignum.Bignum
module Datum = Tailspace_sexp.Datum
module Iset = Set.Make (String)

type ident = string

type const =
  | C_bool of bool
  | C_int of Bignum.t
  | C_sym of string
  | C_str of string
  | C_char of char
  | C_nil
  | C_unspecified
  | C_undefined

type expr =
  | Quote of const
  | Var of ident
  | Lambda of lambda
  | If of expr * expr * expr
  | Set of ident * expr
  | Call of expr * expr list

and lambda = { params : ident list; rest : ident option; body : expr }

let lambda ?rest params body = Lambda { params; rest; body }

let equal_const a b =
  match (a, b) with
  | C_bool x, C_bool y -> x = y
  | C_int x, C_int y -> Bignum.equal x y
  | C_sym x, C_sym y -> String.equal x y
  | C_str x, C_str y -> String.equal x y
  | C_char x, C_char y -> x = y
  | C_nil, C_nil | C_unspecified, C_unspecified | C_undefined, C_undefined ->
      true
  | ( C_bool _ | C_int _ | C_sym _ | C_str _ | C_char _ | C_nil
    | C_unspecified | C_undefined ), _ ->
      false

let rec equal a b =
  match (a, b) with
  | Quote x, Quote y -> equal_const x y
  | Var x, Var y -> String.equal x y
  | Lambda x, Lambda y ->
      x.params = y.params && x.rest = y.rest && equal x.body y.body
  | If (a0, a1, a2), If (b0, b1, b2) -> equal a0 b0 && equal a1 b1 && equal a2 b2
  | Set (i, x), Set (j, y) -> String.equal i j && equal x y
  | Call (f, xs), Call (g, ys) ->
      equal f g && List.length xs = List.length ys && List.for_all2 equal xs ys
  | (Quote _ | Var _ | Lambda _ | If _ | Set _ | Call _), _ -> false

let rec size e =
  match e with
  | Quote _ | Var _ -> 1
  | Lambda { body; _ } -> 1 + size body
  | If (e0, e1, e2) -> 1 + size e0 + size e1 + size e2
  | Set (_, e0) -> 1 + size e0
  | Call (f, args) -> List.fold_left (fun acc e -> acc + size e) (1 + size f) args

(* Free variables, memoized on physical identity: expressions are
   immutable and shared, so a node's set never changes. [Hashtbl.hash] is
   depth-bounded (O(1)) and physical equality makes lookups exact. A
   memo belongs to its caller (a machine keeps one for its lifetime) and
   dies with it; without one, a query computes its sets afresh. *)
module Node_table = Hashtbl.Make (struct
  type t = expr

  let equal = ( == )
  let hash = Hashtbl.hash
end)

type fv_memo = Iset.t Node_table.t

let fv_memo () = Node_table.create 256

let rec fv memo e =
  match Node_table.find_opt memo e with
  | Some s -> s
  | None ->
      let s = compute_fv memo e in
      Node_table.add memo e s;
      s

and compute_fv memo e =
  match e with
  | Quote _ -> Iset.empty
  | Var i -> Iset.singleton i
  | Lambda l -> fv_lambda memo l
  | If (e0, e1, e2) -> Iset.union (fv memo e0) (Iset.union (fv memo e1) (fv memo e2))
  | Set (i, e0) -> Iset.add i (fv memo e0)
  | Call (f, args) ->
      List.fold_left (fun acc e -> Iset.union acc (fv memo e)) (fv memo f) args

and fv_lambda memo { params; rest; body } =
  let bound =
    match rest with Some r -> r :: params | None -> params
  in
  Iset.diff (fv memo body) (Iset.of_list bound)

let memo_or_fresh = function Some memo -> memo | None -> Node_table.create 16
let free_vars ?memo e = fv (memo_or_fresh memo) e
let free_vars_lambda ?memo l = fv_lambda (memo_or_fresh memo) l

let free_vars_of_list ?memo es =
  let memo = memo_or_fresh memo in
  List.fold_left (fun acc e -> Iset.union acc (fv memo e)) Iset.empty es

let datum_of_const c =
  match c with
  | C_bool b -> Datum.Bool b
  | C_int z -> Datum.Int z
  | C_sym s -> Datum.Sym s
  | C_str s -> Datum.Str s
  | C_char c -> Datum.Char c
  | C_nil -> Datum.Nil
  | C_unspecified -> Datum.Sym "#!unspecified"
  | C_undefined -> Datum.Sym "#!undefined"

let rec to_datum e =
  match e with
  | Quote c -> Datum.list [ Datum.Sym "quote"; datum_of_const c ]
  | Var i -> Datum.Sym i
  | Lambda { params; rest; body } ->
      let formals =
        match rest with
        | None -> Datum.list (List.map Datum.sym params)
        | Some r ->
            List.fold_right
              (fun p acc -> Datum.Pair (Datum.Sym p, acc))
              params (Datum.Sym r)
      in
      Datum.list [ Datum.Sym "lambda"; formals; to_datum body ]
  | If (e0, e1, e2) ->
      Datum.list [ Datum.Sym "if"; to_datum e0; to_datum e1; to_datum e2 ]
  | Set (i, e0) -> Datum.list [ Datum.Sym "set!"; Datum.Sym i; to_datum e0 ]
  | Call (f, args) -> Datum.list (to_datum f :: List.map to_datum args)

let pp ppf e = Datum.pp ppf (to_datum e)
let to_string e = Datum.to_string (to_datum e)
