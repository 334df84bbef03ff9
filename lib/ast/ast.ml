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

(* Free variables, computed afresh on every call: the reference the
   annotation pass's kept sets are checked against. *)
let rec free_vars e =
  match e with
  | Quote _ -> Iset.empty
  | Var i -> Iset.singleton i
  | Lambda { params; rest; body } ->
      let bound = match rest with Some r -> r :: params | None -> params in
      Iset.diff (free_vars body) (Iset.of_list bound)
  | If (e0, e1, e2) ->
      Iset.union (free_vars e0) (Iset.union (free_vars e1) (free_vars e2))
  | Set (i, e0) -> Iset.add i (free_vars e0)
  | Call (f, args) -> free_vars_of_list (f :: args)

and free_vars_of_list es =
  List.fold_left (fun acc e -> Iset.union acc (free_vars e)) Iset.empty es

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
