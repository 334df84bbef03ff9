module Bignum = Tailspace_bignum.Bignum
open Types

exception Prim_error of string

type ctx = { output : Buffer.t; mutable rng : int }

let make_ctx ?(seed = 0x5eed) () = { output = Buffer.create 64; rng = seed }

type fn = ctx -> Store.t -> value list -> Store.t * value

let err fmt = Format.kasprintf (fun s -> raise (Prim_error s)) fmt

let type_error name expected v =
  err "%s: expected %s, got %s" name expected (tag_of_value v)

(* ------------------------------------------------------------------ *)
(* Argument plumbing                                                   *)

let arity name n args =
  if List.length args <> n then
    err "%s: expected %d arguments, got %d" name n (List.length args)

let one name = function [ a ] -> a | args -> (arity name 1 args; assert false)

let two name = function
  | [ a; b ] -> (a, b)
  | args -> (arity name 2 args; assert false)

let three name = function
  | [ a; b; c ] -> (a, b, c)
  | args -> (arity name 3 args; assert false)

let want_int name = function Int z -> z | v -> type_error name "number" v

let want_small_int name v =
  match Bignum.to_int (want_int name v) with
  | Some n -> n
  | None -> err "%s: index too large" name

let want_pair name = function
  | Pair (a, d) -> (a, d)
  | v -> type_error name "pair" v

let want_vector name = function
  | Vector locs -> locs
  | v -> type_error name "vector" v

let want_string name = function Str s -> s | v -> type_error name "string" v
let want_char name = function Char c -> c | v -> type_error name "character" v
let bool b = Bool b

let deref name store l =
  match Store.find_opt store l with
  | Some v -> v
  | None -> err "%s: dangling location (deleted by stack allocation?)" name

(* ------------------------------------------------------------------ *)
(* Equivalence                                                         *)

let eqv a b =
  match (a, b) with
  | Bool x, Bool y -> x = y
  | Int x, Int y -> Bignum.equal x y
  | Sym x, Sym y -> String.equal x y
  | Str x, Str y -> String.equal x y
  | Char x, Char y -> x = y
  | Nil, Nil | Unspecified, Unspecified | Undefined, Undefined -> true
  | Pair (a1, d1), Pair (a2, d2) -> a1 = a2 && d1 = d2
  | Vector v1, Vector v2 -> v1 == v2 || v1 = v2
  | Closure (t1, _, _), Closure (t2, _, _) -> t1 = t2
  | Escape (t1, _), Escape (t2, _) -> t1 = t2
  | Primop x, Primop y -> x = y
  | _, _ -> false

let equal_values store a b =
  (* Structural equality through the store; fuel guards against cyclic
     structures, on which R5RS allows equal? to diverge. *)
  let fuel = ref 1_000_000 in
  let rec go a b =
    decr fuel;
    if !fuel <= 0 then err "equal?: structure too deep (cyclic?)"
    else
      match (a, b) with
      | Pair (a1, d1), Pair (a2, d2) ->
          go (deref "equal?" store a1) (deref "equal?" store a2)
          && go (deref "equal?" store d1) (deref "equal?" store d2)
      | Vector l1, Vector l2 ->
          Array.length l1 = Array.length l2
          && (let rec elems i =
                i >= Array.length l1
                || go
                     (deref "equal?" store l1.(i))
                     (deref "equal?" store l2.(i))
                   && elems (i + 1)
              in
              elems 0)
      | a, b -> eqv a b
  in
  go a b

(* ------------------------------------------------------------------ *)
(* Lists                                                               *)

let list_to_values store v =
  let max_cells = Store.cardinal store + 1 in
  let rec go acc n v =
    if n > max_cells then None
    else
      match v with
      | Nil -> Some (List.rev acc)
      | Pair (a, d) -> (
          match (Store.find_opt store a, Store.find_opt store d) with
          | Some car, Some cdr -> go (car :: acc) (n + 1) cdr
          | _ -> None)
      | _ -> None
  in
  go [] 0 v

let values_to_list store vs =
  List.fold_right
    (fun v (store, tail) ->
      let store, d = Store.alloc store tail in
      let store, a = Store.alloc store v in
      (store, Pair (a, d)))
    vs (store, Nil)

(* ------------------------------------------------------------------ *)
(* Arithmetic                                                          *)

let fold_arith name init op ctx store args =
  ignore ctx;
  let z = List.fold_left (fun acc v -> op acc (want_int name v)) init args in
  (store, Int z)

let compare_chain name cmp _ctx store args =
  let rec chain = function
    | a :: (b :: _ as rest) ->
        cmp (want_int name a) (want_int name b) && chain rest
    | [ _ ] | [] -> true
  in
  if List.length args < 2 then err "%s: expected at least 2 arguments" name;
  (store, bool (chain args))

(* ------------------------------------------------------------------ *)
(* The table                                                           *)

type kind = Apply | Call_cc | Fn of fn

let defined = ref []

let define name fn = defined := (name, Fn fn) :: !defined

let () =
  (* numbers *)
  define "+" (fold_arith "+" Bignum.zero Bignum.add);
  define "*" (fold_arith "*" Bignum.one Bignum.mul);
  define "-" (fun _ store args ->
      match args with
      | [] -> err "-: expected at least 1 argument"
      | [ a ] -> (store, Int (Bignum.neg (want_int "-" a)))
      | a :: rest ->
          let z =
            List.fold_left
              (fun acc v -> Bignum.sub acc (want_int "-" v))
              (want_int "-" a) rest
          in
          (store, Int z));
  define "quotient" (fun _ store args ->
      let a, b = two "quotient" args in
      let b = want_int "quotient" b in
      if Bignum.is_zero b then err "quotient: division by zero";
      (store, Int (Bignum.quotient (want_int "quotient" a) b)));
  define "remainder" (fun _ store args ->
      let a, b = two "remainder" args in
      let b = want_int "remainder" b in
      if Bignum.is_zero b then err "remainder: division by zero";
      (store, Int (Bignum.remainder (want_int "remainder" a) b)));
  define "modulo" (fun _ store args ->
      let a, b = two "modulo" args in
      let b = want_int "modulo" b in
      if Bignum.is_zero b then err "modulo: division by zero";
      (store, Int (Bignum.modulo (want_int "modulo" a) b)));
  define "=" (compare_chain "=" (fun a b -> Bignum.compare a b = 0));
  define "<" (compare_chain "<" (fun a b -> Bignum.compare a b < 0));
  define ">" (compare_chain ">" (fun a b -> Bignum.compare a b > 0));
  define "<=" (compare_chain "<=" (fun a b -> Bignum.compare a b <= 0));
  define ">=" (compare_chain ">=" (fun a b -> Bignum.compare a b >= 0));
  define "zero?" (fun _ store args ->
      (store, bool (Bignum.is_zero (want_int "zero?" (one "zero?" args)))));
  define "positive?" (fun _ store args ->
      (store, bool (Bignum.sign (want_int "positive?" (one "positive?" args)) > 0)));
  define "negative?" (fun _ store args ->
      (store, bool (Bignum.sign (want_int "negative?" (one "negative?" args)) < 0)));
  define "even?" (fun _ store args ->
      let z = want_int "even?" (one "even?" args) in
      (store, bool (Bignum.is_even z)));
  define "odd?" (fun _ store args ->
      let z = want_int "odd?" (one "odd?" args) in
      (store, bool (not (Bignum.is_even z))));
  define "abs" (fun _ store args ->
      (store, Int (Bignum.abs (want_int "abs" (one "abs" args)))));
  define "min" (fun _ store args ->
      match args with
      | [] -> err "min: expected at least 1 argument"
      | a :: rest ->
          let z =
            List.fold_left
              (fun acc v -> Bignum.min acc (want_int "min" v))
              (want_int "min" a) rest
          in
          (store, Int z));
  define "max" (fun _ store args ->
      match args with
      | [] -> err "max: expected at least 1 argument"
      | a :: rest ->
          let z =
            List.fold_left
              (fun acc v -> Bignum.max acc (want_int "max" v))
              (want_int "max" a) rest
          in
          (store, Int z));
  define "expt" (fun _ store args ->
      let a, b = two "expt" args in
      let e = want_small_int "expt" b in
      if e < 0 then err "expt: negative exponent";
      (store, Int (Bignum.pow (want_int "expt" a) e)));
  define "number->string" (fun _ store args ->
      (store, Str (Bignum.to_string (want_int "number->string" (one "number->string" args)))));
  define "string->number" (fun _ store args ->
      let s = want_string "string->number" (one "string->number" args) in
      match Bignum.of_string s with
      | z -> (store, Int z)
      | exception Invalid_argument _ -> (store, bool false));
  define "random" (fun ctx store args ->
      let n = want_small_int "random" (one "random" args) in
      if n <= 0 then err "random: bound must be positive";
      (* Deterministic 48-bit LCG (same constants as POSIX drand48). *)
      ctx.rng <- ((ctx.rng * 0x5DEECE66D) + 0xB) land 0xFFFFFFFFFFFF;
      (store, Int (Bignum.of_int (ctx.rng mod n))));

  (* predicates *)
  define "eq?" (fun _ store args ->
      let a, b = two "eq?" args in
      (store, bool (eqv a b)));
  define "eqv?" (fun _ store args ->
      let a, b = two "eqv?" args in
      (store, bool (eqv a b)));
  define "equal?" (fun _ store args ->
      let a, b = two "equal?" args in
      (store, bool (equal_values store a b)));
  define "not" (fun _ store args ->
      (store, bool (match one "not" args with Bool false -> true | _ -> false)));
  let type_pred name p =
    define name (fun _ store args -> (store, bool (p (one name args))))
  in
  type_pred "pair?" (function Pair _ -> true | _ -> false);
  type_pred "null?" (function Nil -> true | _ -> false);
  type_pred "boolean?" (function Bool _ -> true | _ -> false);
  type_pred "symbol?" (function Sym _ -> true | _ -> false);
  type_pred "number?" (function Int _ -> true | _ -> false);
  type_pred "integer?" (function Int _ -> true | _ -> false);
  type_pred "string?" (function Str _ -> true | _ -> false);
  type_pred "char?" (function Char _ -> true | _ -> false);
  type_pred "vector?" (function Vector _ -> true | _ -> false);
  type_pred "procedure?" (function
    | Closure _ | Escape _ | Primop _ -> true
    | _ -> false);

  (* pairs and lists *)
  define "cons" (fun _ store args ->
      let a, d = two "cons" args in
      let store, la = Store.alloc store a in
      let store, ld = Store.alloc store d in
      (store, Pair (la, ld)));
  define "car" (fun _ store args ->
      let a, _ = want_pair "car" (one "car" args) in
      (store, deref "car" store a));
  define "cdr" (fun _ store args ->
      let _, d = want_pair "cdr" (one "cdr" args) in
      (store, deref "cdr" store d));
  define "set-car!" (fun _ store args ->
      let p, v = two "set-car!" args in
      let a, _ = want_pair "set-car!" p in
      (Store.set store a v, Unspecified));
  define "set-cdr!" (fun _ store args ->
      let p, v = two "set-cdr!" args in
      let _, d = want_pair "set-cdr!" p in
      (Store.set store d v, Unspecified));
  define "list" (fun _ store args -> values_to_list store args);

  (* vectors *)
  define "make-vector" (fun _ store args ->
      let n, fill =
        match args with
        | [ n ] -> (n, Unspecified)
        | [ n; fill ] -> (n, fill)
        | _ -> err "make-vector: expected 1 or 2 arguments"
      in
      let n = want_small_int "make-vector" n in
      if n < 0 then err "make-vector: negative length";
      let store, locs = Store.alloc_many store (List.init n (fun _ -> fill)) in
      (store, Vector (Array.of_list locs)));
  define "vector" (fun _ store args ->
      let store, locs = Store.alloc_many store args in
      (store, Vector (Array.of_list locs)));
  define "vector-length" (fun _ store args ->
      let locs = want_vector "vector-length" (one "vector-length" args) in
      (store, Int (Bignum.of_int (Array.length locs))));
  define "vector-ref" (fun _ store args ->
      let v, i = two "vector-ref" args in
      let locs = want_vector "vector-ref" v in
      let i = want_small_int "vector-ref" i in
      if i < 0 || i >= Array.length locs then err "vector-ref: index out of range";
      (store, deref "vector-ref" store locs.(i)));
  define "vector-set!" (fun _ store args ->
      let v, i, x = three "vector-set!" args in
      let locs = want_vector "vector-set!" v in
      let i = want_small_int "vector-set!" i in
      if i < 0 || i >= Array.length locs then err "vector-set!: index out of range";
      (Store.set store locs.(i) x, Unspecified));
  define "vector-fill!" (fun _ store args ->
      let v, x = two "vector-fill!" args in
      let locs = want_vector "vector-fill!" v in
      let store = Array.fold_left (fun st l -> Store.set st l x) store locs in
      (store, Unspecified));

  (* strings (immutable) *)
  define "string-length" (fun _ store args ->
      (store, Int (Bignum.of_int (String.length (want_string "string-length" (one "string-length" args))))));
  define "string-ref" (fun _ store args ->
      let s, i = two "string-ref" args in
      let s = want_string "string-ref" s in
      let i = want_small_int "string-ref" i in
      if i < 0 || i >= String.length s then err "string-ref: index out of range";
      (store, Char s.[i]));
  define "string-append" (fun _ store args ->
      (store, Str (String.concat "" (List.map (want_string "string-append") args))));
  define "substring" (fun _ store args ->
      let s, i, j = three "substring" args in
      let s = want_string "substring" s in
      let i = want_small_int "substring" i and j = want_small_int "substring" j in
      if i < 0 || j < i || j > String.length s then err "substring: bad range";
      (store, Str (String.sub s i (j - i))));
  define "string=?" (fun _ store args ->
      let a, b = two "string=?" args in
      (store, bool (String.equal (want_string "string=?" a) (want_string "string=?" b))));
  define "string<?" (fun _ store args ->
      let a, b = two "string<?" args in
      (store, bool (String.compare (want_string "string<?" a) (want_string "string<?" b) < 0)));
  define "string->symbol" (fun _ store args ->
      (store, Sym (want_string "string->symbol" (one "string->symbol" args))));
  define "symbol->string" (fun _ store args ->
      match one "symbol->string" args with
      | Sym s -> (store, Str s)
      | v -> type_error "symbol->string" "symbol" v);
  define "string->list" (fun _ store args ->
      let s = want_string "string->list" (one "string->list" args) in
      values_to_list store (List.init (String.length s) (fun i -> Char s.[i])));

  (* characters *)
  define "char->integer" (fun _ store args ->
      (store, Int (Bignum.of_int (Char.code (want_char "char->integer" (one "char->integer" args))))));
  define "integer->char" (fun _ store args ->
      let n = want_small_int "integer->char" (one "integer->char" args) in
      if n < 0 || n > 255 then err "integer->char: out of range";
      (store, Char (Char.chr n)));
  define "char=?" (fun _ store args ->
      let a, b = two "char=?" args in
      (store, bool (want_char "char=?" a = want_char "char=?" b)));
  define "char<?" (fun _ store args ->
      let a, b = two "char<?" args in
      (store, bool (want_char "char<?" a < want_char "char<?" b)));

  (* output *)
  define "display" (fun ctx store args ->
      Buffer.add_string ctx.output (Answer.display store (one "display" args));
      (store, Unspecified));
  define "write" (fun ctx store args ->
      Buffer.add_string ctx.output (Answer.write store (one "write" args));
      (store, Unspecified));
  define "newline" (fun ctx store args ->
      arity "newline" 0 args;
      Buffer.add_char ctx.output '\n';
      (store, Unspecified));

  (* errors *)
  define "error" (fun _ store args ->
      ignore store;
      let parts =
        List.map
          (function Str s -> s | v -> Answer.write store v)
          args
      in
      err "error: %s" (String.concat " " parts))

(* [apply] and [call/cc] manipulate the continuation, so the machine
   and the denotational evaluator carry them out; they are in the table
   only so that [procedure?] and the initial environment see them. A
   primitive's code is its index in name order. *)
let table =
  ("apply", Apply)
  :: ("call-with-current-continuation", Call_cc)
  :: ("call/cc", Call_cc)
  :: !defined
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> Array.of_list

let kind code = snd table.(code)
let names () = Array.to_list (Array.map fst table)

let bindings =
  List.init (Array.length table) (fun code -> (fst table.(code), Primop code))

let initial_bindings () = bindings
