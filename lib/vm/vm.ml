module Ast = Tailspace_ast.Ast
module Bignum = Tailspace_bignum.Bignum
module Datum = Tailspace_sexp.Datum
module Reader = Tailspace_sexp.Reader
module Expand = Tailspace_expander.Expand
module Machine = Tailspace_core.Machine
module Prim = Tailspace_core.Prim
module Space_model = Tailspace_core.Space_model
module Telemetry = Tailspace_telemetry.Telemetry
module Resilience = Tailspace_resilience.Resilience

type outcome =
  | Done of string
  | Stuck of string
  | Aborted of Resilience.abort_reason

type result = {
  outcome : outcome;
  steps : int;
  program_size : int;
  output : string;
}

(* ================================================================== *)
(* The fast tier: flat bytecode over an untracked value domain.        *)
(* ================================================================== *)

type instr =
  | Const of int
  | Local of int * int
  | Global of int
  | SetLocal of int * int
  | SetGlobal of int
  | MkClosure of int
  | JumpIfFalse of int
  | Jump of int
  | Call of int
  | TailCall of int
  | Return
  | Halt

(* The fast value domain. Mutation is direct (pair cells, vector and
   rib slots), identity is physical, and nothing carries a space
   figure: the paper's accounting lives entirely in the stepper
   ([Machine]). [FUnbound] marks a global slot the compiler created for
   a name no definition ever filled. *)
type fvalue =
  | FBool of bool
  | FInt of Bignum.t
  | FSym of string
  | FStr of string
  | FChar of char
  | FNil
  | FUnspec
  | FUndef
  | FUnbound
  | FPair of pcell
  | FVec of fvalue array
  | FClos of fclosure
  | FPrim of string
  | FCont of snapshot

and pcell = { mutable car : fvalue; mutable cdr : fvalue }

(* Lexical environments are chains of ribs; [rnil] is its own parent so
   depth walks need no option test (a correct compiler never walks past
   the outermost rib). *)
and rib = { slots : fvalue array; up : rib }

and fclosure = { tmpl : int; cenv : rib }

(* A first-class continuation: copies of both stacks plus the capture
   environment. [k_ret >= 0] resumes at that pc; [k_ret = -1] performs a
   frame return (the capture happened in tail position). *)
and snapshot = {
  k_stack : fvalue array;
  k_fpc : int array;
  k_fenv : rib array;
  k_env : rib;
  k_ret : int;
}

let rec rnil = { slots = [||]; up = rnil }

type template = {
  mutable entry : int;
  nparams : int;
  variadic : bool;
  tname : string;
}

type world = {
  mutable code : instr array;
  mutable meta : string array;  (** per-pc note (names, constants) *)
  mutable clen : int;
  mutable pool : fvalue array;
  mutable plen : int;
  gslots : (string, int) Hashtbl.t;
  mutable gnames : string array;
  mutable gvals : fvalue array;
  mutable glen : int;
  mutable tmpls : template array;
  mutable tlen : int;
}

exception Fstuck of string
exception Fabort of Resilience.abort_reason

let err fmt = Format.kasprintf (fun s -> raise (Fstuck s)) fmt

let ftag = function
  | FBool _ -> "boolean"
  | FInt _ -> "number"
  | FSym _ -> "symbol"
  | FStr _ -> "string"
  | FChar _ -> "character"
  | FNil -> "empty list"
  | FUnspec -> "unspecified"
  | FUndef | FUnbound -> "undefined"
  | FPair _ -> "pair"
  | FVec _ -> "vector"
  | FClos _ -> "closure"
  | FCont _ -> "continuation"
  | FPrim _ -> "primitive"

(* ------------------------------------------------------------------ *)
(* Rendering (the same conventions as [Answer], store-free).           *)

type style = Display | Write

let render ~style ~fuel v =
  let buf = Buffer.create 64 in
  let budget = ref fuel in
  let out s =
    if !budget > 0 then begin
      decr budget;
      Buffer.add_string buf s
    end
  in
  let rec emit v =
    if !budget > 0 then
      match v with
      | FBool true -> out "#t"
      | FBool false -> out "#f"
      | FInt z -> out (Bignum.to_string z)
      | FSym s -> out s
      | FStr s -> (
          match style with
          | Display -> out s
          | Write -> out (Format.asprintf "%a" Datum.pp (Datum.Str s)))
      | FChar c -> (
          match style with
          | Display -> out (String.make 1 c)
          | Write -> out (Format.asprintf "%a" Datum.pp (Datum.Char c)))
      | FNil -> out "()"
      | FUnspec -> out "#!unspecified"
      | FUndef | FUnbound -> out "#!undefined"
      | FClos _ | FCont _ | FPrim _ -> out "#<PROC>"
      | FVec elems ->
          out "#(";
          Array.iteri
            (fun i v ->
              if i > 0 then out " ";
              emit v)
            elems;
          out ")"
      | FPair p ->
          out "(";
          emit p.car;
          emit_tail p.cdr;
          out ")"
  and emit_tail v =
    if !budget > 0 then
      match v with
      | FNil -> ()
      | FPair p ->
          out " ";
          emit p.car;
          emit_tail p.cdr
      | v ->
          out " . ";
          emit v
  in
  emit v;
  if !budget <= 0 then Buffer.add_string buf "...";
  Buffer.contents buf

let fwrite v = render ~style:Write ~fuel:10_000 v
let fdisplay v = render ~style:Display ~fuel:10_000 v

(* ------------------------------------------------------------------ *)
(* Primitives over the fast domain: the same table as [Prim], same
   error messages, physical identity where the stepper compares store
   locations.                                                          *)

type fstate = { out : Buffer.t; mutable rng : int }

let type_error name expected v =
  err "%s: expected %s, got %s" name expected (ftag v)

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

let want_int name = function FInt z -> z | v -> type_error name "number" v

let want_small_int name v =
  match Bignum.to_int (want_int name v) with
  | Some n -> n
  | None -> err "%s: index too large" name

let want_pair name = function FPair p -> p | v -> type_error name "pair" v
let want_vector name = function FVec a -> a | v -> type_error name "vector" v
let want_string name = function FStr s -> s | v -> type_error name "string" v
let want_char name = function FChar c -> c | v -> type_error name "character" v
let fbool b = FBool b

let feqv a b =
  match (a, b) with
  | FBool x, FBool y -> x = y
  | FInt x, FInt y -> Bignum.equal x y
  | FSym x, FSym y -> String.equal x y
  | FStr x, FStr y -> String.equal x y
  | FChar x, FChar y -> x = y
  | FNil, FNil | FUnspec, FUnspec | FUndef, FUndef -> true
  | FPair p, FPair q -> p == q
  | FVec x, FVec y -> x == y
  | FClos c, FClos d -> c == d
  | FCont k, FCont l -> k == l
  | FPrim x, FPrim y -> String.equal x y
  | _, _ -> false

let fequal a b =
  let fuel = ref 1_000_000 in
  let rec go a b =
    decr fuel;
    if !fuel <= 0 then err "equal?: structure too deep (cyclic?)"
    else
      match (a, b) with
      | FPair p, FPair q -> go p.car q.car && go p.cdr q.cdr
      | FVec l1, FVec l2 ->
          Array.length l1 = Array.length l2
          && (let rec elems i =
                i >= Array.length l1 || (go l1.(i) l2.(i) && elems (i + 1))
              in
              elems 0)
      | a, b -> feqv a b
  in
  go a b

let flist_to_values v =
  (* Guards against cycles built with [set-cdr!], as the stepper's
     store-cardinal bound does. *)
  let rec go acc n v =
    if n > 10_000_000 then None
    else
      match v with
      | FNil -> Some (List.rev acc)
      | FPair p -> go (p.car :: acc) (n + 1) p.cdr
      | _ -> None
  in
  go [] 0 v

let fvalues_to_list vs =
  List.fold_right (fun v tail -> FPair { car = v; cdr = tail }) vs FNil

let ftable : (string, fstate -> fvalue list -> fvalue) Hashtbl.t =
  Hashtbl.create 97

let fdefine name fn = Hashtbl.replace ftable name fn

let fold_arith name init op _st args =
  FInt (List.fold_left (fun acc v -> op acc (want_int name v)) init args)

let compare_chain name cmp _st args =
  let rec chain = function
    | a :: (b :: _ as rest) ->
        cmp (want_int name a) (want_int name b) && chain rest
    | [ _ ] | [] -> true
  in
  if List.length args < 2 then err "%s: expected at least 2 arguments" name;
  fbool (chain args)

let () =
  (* numbers *)
  fdefine "+" (fold_arith "+" Bignum.zero Bignum.add);
  fdefine "*" (fold_arith "*" Bignum.one Bignum.mul);
  fdefine "-" (fun _ args ->
      match args with
      | [] -> err "-: expected at least 1 argument"
      | [ a ] -> FInt (Bignum.neg (want_int "-" a))
      | a :: rest ->
          FInt
            (List.fold_left
               (fun acc v -> Bignum.sub acc (want_int "-" v))
               (want_int "-" a) rest));
  fdefine "quotient" (fun _ args ->
      let a, b = two "quotient" args in
      let b = want_int "quotient" b in
      if Bignum.is_zero b then err "quotient: division by zero";
      FInt (Bignum.quotient (want_int "quotient" a) b));
  fdefine "remainder" (fun _ args ->
      let a, b = two "remainder" args in
      let b = want_int "remainder" b in
      if Bignum.is_zero b then err "remainder: division by zero";
      FInt (Bignum.remainder (want_int "remainder" a) b));
  fdefine "modulo" (fun _ args ->
      let a, b = two "modulo" args in
      let b = want_int "modulo" b in
      if Bignum.is_zero b then err "modulo: division by zero";
      FInt (Bignum.modulo (want_int "modulo" a) b));
  fdefine "=" (compare_chain "=" (fun a b -> Bignum.compare a b = 0));
  fdefine "<" (compare_chain "<" (fun a b -> Bignum.compare a b < 0));
  fdefine ">" (compare_chain ">" (fun a b -> Bignum.compare a b > 0));
  fdefine "<=" (compare_chain "<=" (fun a b -> Bignum.compare a b <= 0));
  fdefine ">=" (compare_chain ">=" (fun a b -> Bignum.compare a b >= 0));
  fdefine "zero?" (fun _ args ->
      fbool (Bignum.is_zero (want_int "zero?" (one "zero?" args))));
  fdefine "positive?" (fun _ args ->
      fbool (Bignum.sign (want_int "positive?" (one "positive?" args)) > 0));
  fdefine "negative?" (fun _ args ->
      fbool (Bignum.sign (want_int "negative?" (one "negative?" args)) < 0));
  fdefine "even?" (fun _ args ->
      let z = want_int "even?" (one "even?" args) in
      fbool (Bignum.is_even z));
  fdefine "odd?" (fun _ args ->
      let z = want_int "odd?" (one "odd?" args) in
      fbool (not (Bignum.is_even z)));
  fdefine "abs" (fun _ args -> FInt (Bignum.abs (want_int "abs" (one "abs" args))));
  fdefine "min" (fun _ args ->
      match args with
      | [] -> err "min: expected at least 1 argument"
      | a :: rest ->
          FInt
            (List.fold_left
               (fun acc v -> Bignum.min acc (want_int "min" v))
               (want_int "min" a) rest));
  fdefine "max" (fun _ args ->
      match args with
      | [] -> err "max: expected at least 1 argument"
      | a :: rest ->
          FInt
            (List.fold_left
               (fun acc v -> Bignum.max acc (want_int "max" v))
               (want_int "max" a) rest));
  fdefine "expt" (fun _ args ->
      let a, b = two "expt" args in
      let e = want_small_int "expt" b in
      if e < 0 then err "expt: negative exponent";
      FInt (Bignum.pow (want_int "expt" a) e));
  fdefine "number->string" (fun _ args ->
      FStr (Bignum.to_string (want_int "number->string" (one "number->string" args))));
  fdefine "string->number" (fun _ args ->
      let s = want_string "string->number" (one "string->number" args) in
      match Bignum.of_string s with
      | z -> FInt z
      | exception Invalid_argument _ -> fbool false);
  fdefine "random" (fun st args ->
      let n = want_small_int "random" (one "random" args) in
      if n <= 0 then err "random: bound must be positive";
      (* The same 48-bit LCG as [Prim], so seeded runs agree with the
         steppers under left-to-right evaluation. *)
      st.rng <- ((st.rng * 0x5DEECE66D) + 0xB) land 0xFFFFFFFFFFFF;
      FInt (Bignum.of_int (st.rng mod n)));

  (* predicates *)
  fdefine "eq?" (fun _ args ->
      let a, b = two "eq?" args in
      fbool (feqv a b));
  fdefine "eqv?" (fun _ args ->
      let a, b = two "eqv?" args in
      fbool (feqv a b));
  fdefine "equal?" (fun _ args ->
      let a, b = two "equal?" args in
      fbool (fequal a b));
  fdefine "not" (fun _ args ->
      fbool (match one "not" args with FBool false -> true | _ -> false));
  let type_pred name p = fdefine name (fun _ args -> fbool (p (one name args))) in
  type_pred "pair?" (function FPair _ -> true | _ -> false);
  type_pred "null?" (function FNil -> true | _ -> false);
  type_pred "boolean?" (function FBool _ -> true | _ -> false);
  type_pred "symbol?" (function FSym _ -> true | _ -> false);
  type_pred "number?" (function FInt _ -> true | _ -> false);
  type_pred "integer?" (function FInt _ -> true | _ -> false);
  type_pred "string?" (function FStr _ -> true | _ -> false);
  type_pred "char?" (function FChar _ -> true | _ -> false);
  type_pred "vector?" (function FVec _ -> true | _ -> false);
  type_pred "procedure?" (function
    | FClos _ | FCont _ | FPrim _ -> true
    | _ -> false);

  (* pairs and lists *)
  fdefine "cons" (fun _ args ->
      let a, d = two "cons" args in
      FPair { car = a; cdr = d });
  fdefine "car" (fun _ args -> (want_pair "car" (one "car" args)).car);
  fdefine "cdr" (fun _ args -> (want_pair "cdr" (one "cdr" args)).cdr);
  fdefine "set-car!" (fun _ args ->
      let p, v = two "set-car!" args in
      (want_pair "set-car!" p).car <- v;
      FUnspec);
  fdefine "set-cdr!" (fun _ args ->
      let p, v = two "set-cdr!" args in
      (want_pair "set-cdr!" p).cdr <- v;
      FUnspec);
  fdefine "list" (fun _ args -> fvalues_to_list args);

  (* vectors *)
  fdefine "make-vector" (fun _ args ->
      let n, fill =
        match args with
        | [ n ] -> (n, FUnspec)
        | [ n; fill ] -> (n, fill)
        | _ -> err "make-vector: expected 1 or 2 arguments"
      in
      let n = want_small_int "make-vector" n in
      if n < 0 then err "make-vector: negative length";
      FVec (Array.make n fill));
  fdefine "vector" (fun _ args -> FVec (Array.of_list args));
  fdefine "vector-length" (fun _ args ->
      FInt
        (Bignum.of_int
           (Array.length (want_vector "vector-length" (one "vector-length" args)))));
  fdefine "vector-ref" (fun _ args ->
      let v, i = two "vector-ref" args in
      let a = want_vector "vector-ref" v in
      let i = want_small_int "vector-ref" i in
      if i < 0 || i >= Array.length a then err "vector-ref: index out of range";
      a.(i));
  fdefine "vector-set!" (fun _ args ->
      let v, i, x = three "vector-set!" args in
      let a = want_vector "vector-set!" v in
      let i = want_small_int "vector-set!" i in
      if i < 0 || i >= Array.length a then err "vector-set!: index out of range";
      a.(i) <- x;
      FUnspec);
  fdefine "vector-fill!" (fun _ args ->
      let v, x = two "vector-fill!" args in
      Array.fill (want_vector "vector-fill!" v) 0
        (Array.length (want_vector "vector-fill!" v))
        x;
      FUnspec);

  (* strings (immutable) *)
  fdefine "string-length" (fun _ args ->
      FInt
        (Bignum.of_int
           (String.length (want_string "string-length" (one "string-length" args)))));
  fdefine "string-ref" (fun _ args ->
      let s, i = two "string-ref" args in
      let s = want_string "string-ref" s in
      let i = want_small_int "string-ref" i in
      if i < 0 || i >= String.length s then err "string-ref: index out of range";
      FChar s.[i]);
  fdefine "string-append" (fun _ args ->
      FStr (String.concat "" (List.map (want_string "string-append") args)));
  fdefine "substring" (fun _ args ->
      let s, i, j = three "substring" args in
      let s = want_string "substring" s in
      let i = want_small_int "substring" i
      and j = want_small_int "substring" j in
      if i < 0 || j < i || j > String.length s then err "substring: bad range";
      FStr (String.sub s i (j - i)));
  fdefine "string=?" (fun _ args ->
      let a, b = two "string=?" args in
      fbool (String.equal (want_string "string=?" a) (want_string "string=?" b)));
  fdefine "string<?" (fun _ args ->
      let a, b = two "string<?" args in
      fbool
        (String.compare (want_string "string<?" a) (want_string "string<?" b) < 0));
  fdefine "string->symbol" (fun _ args ->
      FSym (want_string "string->symbol" (one "string->symbol" args)));
  fdefine "symbol->string" (fun _ args ->
      match one "symbol->string" args with
      | FSym s -> FStr s
      | v -> type_error "symbol->string" "symbol" v);
  fdefine "string->list" (fun _ args ->
      let s = want_string "string->list" (one "string->list" args) in
      fvalues_to_list (List.init (String.length s) (fun i -> FChar s.[i])));

  (* characters *)
  fdefine "char->integer" (fun _ args ->
      FInt
        (Bignum.of_int
           (Char.code (want_char "char->integer" (one "char->integer" args)))));
  fdefine "integer->char" (fun _ args ->
      let n = want_small_int "integer->char" (one "integer->char" args) in
      if n < 0 || n > 255 then err "integer->char: out of range";
      FChar (Char.chr n));
  fdefine "char=?" (fun _ args ->
      let a, b = two "char=?" args in
      fbool (want_char "char=?" a = want_char "char=?" b));
  fdefine "char<?" (fun _ args ->
      let a, b = two "char<?" args in
      fbool (want_char "char<?" a < want_char "char<?" b));

  (* output *)
  fdefine "display" (fun st args ->
      Buffer.add_string st.out (fdisplay (one "display" args));
      FUnspec);
  fdefine "write" (fun st args ->
      Buffer.add_string st.out (fwrite (one "write" args));
      FUnspec);
  fdefine "newline" (fun st args ->
      arity "newline" 0 args;
      Buffer.add_char st.out '\n';
      FUnspec);

  (* errors *)
  fdefine "error" (fun _ args ->
      let parts = List.map (function FStr s -> s | v -> fwrite v) args in
      err "error: %s" (String.concat " " parts))

(* ------------------------------------------------------------------ *)
(* The compiler: expanded AST -> flat instruction array.               *)

let fvalue_of_const : Ast.const -> fvalue = function
  | Ast.C_bool b -> FBool b
  | Ast.C_int z -> FInt z
  | Ast.C_sym s -> FSym s
  | Ast.C_str s -> FStr s
  | Ast.C_char c -> FChar c
  | Ast.C_nil -> FNil
  | Ast.C_unspecified -> FUnspec
  | Ast.C_undefined -> FUndef

let new_world () =
  {
    code = Array.make 512 Halt;
    meta = Array.make 512 "";
    clen = 0;
    pool = Array.make 64 FNil;
    plen = 0;
    gslots = Hashtbl.create 97;
    gnames = Array.make 128 "";
    gvals = Array.make 128 FUnbound;
    glen = 0;
    tmpls = Array.make 32 { entry = 0; nparams = 0; variadic = false; tname = "" };
    tlen = 0;
  }

let grow_to a len dummy =
  if len < Array.length a then a
  else begin
    let b = Array.make (max (2 * Array.length a) (len + 1)) dummy in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let emit w ?(note = "") i =
  w.code <- grow_to w.code w.clen Halt;
  w.meta <- grow_to w.meta w.clen "";
  let pc = w.clen in
  w.code.(pc) <- i;
  w.meta.(pc) <- note;
  w.clen <- pc + 1;
  pc

let patch w pc i = w.code.(pc) <- i

let add_const w v =
  w.pool <- grow_to w.pool w.plen FNil;
  let i = w.plen in
  w.pool.(i) <- v;
  w.plen <- i + 1;
  i

let gslot w name =
  match Hashtbl.find_opt w.gslots name with
  | Some i -> i
  | None ->
      w.gnames <- grow_to w.gnames w.glen "";
      w.gvals <- grow_to w.gvals w.glen FUnbound;
      let i = w.glen in
      w.gnames.(i) <- name;
      w.gvals.(i) <- FUnbound;
      w.glen <- i + 1;
      Hashtbl.add w.gslots name i;
      i

let add_template w t =
  w.tmpls <- grow_to w.tmpls w.tlen t;
  let i = w.tlen in
  w.tmpls.(i) <- t;
  w.tlen <- i + 1;
  i

let const_note c = Ast.to_string (Ast.Quote c)

(* Compile one closed unit into [w]; returns its entry pc. Templates
   created by the unit are queued and compiled after its [Halt], so the
   unit's own stream stays contiguous (every template body ends in
   [Return] or [TailCall] — there is no fallthrough). *)
let compile_unit w expr =
  let index_of x names =
    let rec go i = function
      | [] -> None
      | n :: rest -> if String.equal n x then Some i else go (i + 1) rest
    in
    go 0 names
  in
  let resolve cenv x =
    let rec frames d = function
      | [] -> None
      | names :: rest -> (
          match index_of x names with
          | Some i -> Some (d, i)
          | None -> frames (d + 1) rest)
    in
    frames 0 cenv
  in
  let pending = Queue.create () in
  let rec comp ~tail ~name e cenv =
    match (e : Ast.expr) with
    | Ast.Quote c ->
        ignore (emit w ~note:(const_note c) (Const (add_const w (fvalue_of_const c))));
        if tail then ignore (emit w Return)
    | Ast.Var x ->
        (match resolve cenv x with
        | Some (d, i) -> ignore (emit w ~note:x (Local (d, i)))
        | None -> ignore (emit w ~note:x (Global (gslot w x))));
        if tail then ignore (emit w Return)
    | Ast.Lambda l ->
        let names =
          match l.rest with Some r -> l.params @ [ r ] | None -> l.params
        in
        let t =
          {
            entry = -1;
            nparams = List.length l.params;
            variadic = Option.is_some l.rest;
            tname = name;
          }
        in
        let idx = add_template w t in
        Queue.add (idx, l.Ast.body, names :: cenv) pending;
        ignore (emit w ~note:name (MkClosure idx));
        if tail then ignore (emit w Return)
    | Ast.Set (x, e0) ->
        comp ~tail:false ~name:x e0 cenv;
        (match resolve cenv x with
        | Some (d, i) -> ignore (emit w ~note:x (SetLocal (d, i)))
        | None -> ignore (emit w ~note:x (SetGlobal (gslot w x))));
        if tail then ignore (emit w Return)
    | Ast.If (e0, e1, e2) ->
        comp ~tail:false ~name:"" e0 cenv;
        let jf = emit w (JumpIfFalse (-1)) in
        if tail then begin
          comp ~tail:true ~name e1 cenv;
          patch w jf (JumpIfFalse w.clen);
          comp ~tail:true ~name e2 cenv
        end
        else begin
          comp ~tail:false ~name e1 cenv;
          let j = emit w (Jump (-1)) in
          patch w jf (JumpIfFalse w.clen);
          comp ~tail:false ~name e2 cenv;
          patch w j (Jump w.clen)
        end
    | Ast.Call (f, args) ->
        comp ~tail:false ~name:"" f cenv;
        List.iter (fun a -> comp ~tail:false ~name:"" a cenv) args;
        let n = List.length args in
        ignore (emit w (if tail then TailCall n else Call n))
  in
  let entry = w.clen in
  comp ~tail:false ~name:"" expr [];
  ignore (emit w Halt);
  let rec drain () =
    match Queue.take_opt pending with
    | None -> ()
    | Some (idx, body, cenv) ->
        w.tmpls.(idx).entry <- w.clen;
        comp ~tail:true ~name:w.tmpls.(idx).tname body cenv;
        drain ()
  in
  drain ();
  entry

(* ------------------------------------------------------------------ *)
(* The dispatch loop.                                                  *)

type rstate = {
  mutable stack : fvalue array;
  mutable sp : int;
  mutable fpc : int array;
  mutable fenv : rib array;
  mutable fp : int;
  mutable env : rib;
  mutable pc : int;
  mutable steps : int;
  fst : fstate;
}

let new_rstate ~seed =
  {
    stack = Array.make 256 FUnspec;
    sp = 0;
    fpc = Array.make 64 0;
    fenv = Array.make 64 rnil;
    fp = 0;
    env = rnil;
    pc = 0;
    steps = 0;
    fst = { out = Buffer.create 64; rng = seed };
  }

let run_unit w st ~fuel ~entry =
  st.pc <- entry;
  st.env <- rnil;
  let push v =
    if st.sp >= Array.length st.stack then
      st.stack <- grow_to st.stack st.sp FUnspec;
    st.stack.(st.sp) <- v;
    st.sp <- st.sp + 1
  in
  let push_frame ret_pc ret_env =
    if st.fp >= Array.length st.fpc then begin
      st.fpc <- grow_to st.fpc st.fp 0;
      st.fenv <- grow_to st.fenv st.fp rnil
    end;
    st.fpc.(st.fp) <- ret_pc;
    st.fenv.(st.fp) <- ret_env;
    st.fp <- st.fp + 1
  in
  let pop_frame () =
    st.fp <- st.fp - 1;
    st.pc <- st.fpc.(st.fp);
    st.env <- st.fenv.(st.fp)
  in
  let rec rib_at r d = if d = 0 then r else rib_at r.up (d - 1) in
  (* Pop [n] argument values plus the operator below them; return the
     arguments in order. *)
  let pop_args n =
    let base = st.sp - n in
    let rec build i acc =
      if i < base then acc else build (i - 1) (st.stack.(i) :: acc)
    in
    let args = build (st.sp - 1) [] in
    st.sp <- base - 1;
    args
  in
  let capture ~tail =
    FCont
      {
        k_stack = Array.sub st.stack 0 st.sp;
        k_fpc = Array.sub st.fpc 0 st.fp;
        k_fenv = Array.sub st.fenv 0 st.fp;
        k_env = st.env;
        k_ret = (if tail then -1 else st.pc + 1);
      }
  in
  let enter_closure ~tail c slots =
    if not tail then push_frame (st.pc + 1) st.env;
    st.env <- { slots; up = c.cenv };
    st.pc <- w.tmpls.(c.tmpl).entry
  in
  let slots_of_list t args n =
    let np = t.nparams in
    if (if t.variadic then n < np else n <> np) then
      err "arity: procedure expects %s%d arguments, got %d"
        (if t.variadic then "at least " else "")
        np n;
    let size = np + if t.variadic then 1 else 0 in
    let slots = Array.make (max size 1) FUnspec in
    let rec fill i = function
      | args when i >= np ->
          if t.variadic then slots.(np) <- fvalues_to_list args
      | a :: rest ->
          slots.(i) <- a;
          fill (i + 1) rest
      | [] -> ()
    in
    fill 0 args;
    slots
  in
  let restore_cont k v =
    let n = Array.length k.k_stack in
    st.stack <- Array.make (max 256 (2 * n)) FUnspec;
    Array.blit k.k_stack 0 st.stack 0 n;
    st.sp <- n;
    let fn = Array.length k.k_fpc in
    st.fpc <- Array.make (max 64 (2 * fn)) 0;
    st.fenv <- Array.make (max 64 (2 * fn)) rnil;
    Array.blit k.k_fpc 0 st.fpc 0 fn;
    Array.blit k.k_fenv 0 st.fenv 0 fn;
    st.fp <- fn;
    st.env <- k.k_env;
    push v;
    if k.k_ret >= 0 then st.pc <- k.k_ret
    else begin
      (* Captured in tail position: resuming means returning from the
         frame that was current at capture time. *)
      let v = st.stack.(st.sp - 1) in
      st.sp <- st.sp - 1;
      pop_frame ();
      push v
    end
  in
  let rec invoke_list ~tail f args =
    match f with
    | FClos c ->
        let t = w.tmpls.(c.tmpl) in
        let slots = slots_of_list t args (List.length args) in
        enter_closure ~tail c slots
    | FPrim name -> invoke_prim ~tail name args
    | FCont k -> (
        match args with
        | [ v ] -> restore_cont k v
        | _ -> err "continuation expects 1 value, got %d" (List.length args))
    | v -> err "attempt to call a non-procedure (%s)" (ftag v)
  and invoke_prim ~tail name args =
    match name with
    | "apply" -> (
        match args with
        | f :: (_ :: _ as rest) -> (
            let middle, last =
              let r = List.rev rest in
              (List.rev (List.tl r), List.hd r)
            in
            match flist_to_values last with
            | Some flattened -> invoke_list ~tail f (middle @ flattened)
            | None -> err "apply: last argument is not a proper list")
        | _ -> err "apply: expected a procedure and an argument list")
    | "call-with-current-continuation" | "call/cc" -> (
        match args with
        | [ f ] -> invoke_list ~tail f [ capture ~tail ]
        | _ -> err "call/cc: expected exactly 1 argument")
    | _ -> (
        match Hashtbl.find_opt ftable name with
        | None -> err "unknown primitive: %s" name
        | Some fn ->
            let v = fn st.fst args in
            if tail then begin
              pop_frame ();
              push v
            end
            else begin
              push v;
              st.pc <- st.pc + 1
            end)
  in
  let code = w.code in
  let running = ref true in
  while !running do
    st.steps <- st.steps + 1;
    if st.steps >= fuel then
      raise (Fabort (Resilience.Out_of_fuel { limit = fuel }));
    match code.(st.pc) with
    | Const i ->
        push w.pool.(i);
        st.pc <- st.pc + 1
    | Local (d, i) -> (
        match (rib_at st.env d).slots.(i) with
        | FUndef ->
            err "%s: letrec variable used before initialization" w.meta.(st.pc)
        | v ->
            push v;
            st.pc <- st.pc + 1)
    | Global i -> (
        match w.gvals.(i) with
        | FUnbound -> err "unbound variable: %s" w.gnames.(i)
        | FUndef ->
            err "%s: letrec variable used before initialization" w.gnames.(i)
        | v ->
            push v;
            st.pc <- st.pc + 1)
    | SetLocal (d, i) ->
        st.sp <- st.sp - 1;
        (rib_at st.env d).slots.(i) <- st.stack.(st.sp);
        push FUnspec;
        st.pc <- st.pc + 1
    | SetGlobal i ->
        if w.gvals.(i) == FUnbound then
          err "set!: unbound variable %s" w.gnames.(i);
        st.sp <- st.sp - 1;
        w.gvals.(i) <- st.stack.(st.sp);
        push FUnspec;
        st.pc <- st.pc + 1
    | MkClosure ti ->
        push (FClos { tmpl = ti; cenv = st.env });
        st.pc <- st.pc + 1
    | JumpIfFalse target -> (
        st.sp <- st.sp - 1;
        match st.stack.(st.sp) with
        | FBool false -> st.pc <- target
        | _ -> st.pc <- st.pc + 1)
    | Jump target -> st.pc <- target
    | Call n | TailCall n -> (
        let tail = match code.(st.pc) with TailCall _ -> true | _ -> false in
        match st.stack.(st.sp - n - 1) with
        | FClos c ->
            (* The hot path: arguments move straight from the value
               stack into the callee's rib; a tail call pushes no frame,
               so the callee runs in — reuses — the caller's frame. *)
            let t = w.tmpls.(c.tmpl) in
            let np = t.nparams in
            if (if t.variadic then n < np else n <> np) then
              err "arity: procedure expects %s%d arguments, got %d"
                (if t.variadic then "at least " else "")
                np n;
            let size = np + if t.variadic then 1 else 0 in
            let slots = Array.make (max size 1) FUnspec in
            let base = st.sp - n in
            for i = 0 to np - 1 do
              slots.(i) <- st.stack.(base + i)
            done;
            if t.variadic then begin
              let rest = ref FNil in
              for i = n - 1 downto np do
                rest := FPair { car = st.stack.(base + i); cdr = !rest }
              done;
              slots.(np) <- !rest
            end;
            st.sp <- base - 1;
            enter_closure ~tail c slots
        | FPrim name -> invoke_prim ~tail name (pop_args n)
        | FCont k -> (
            match pop_args n with
            | [ v ] -> restore_cont k v
            | args -> err "continuation expects 1 value, got %d" (List.length args))
        | v -> err "attempt to call a non-procedure (%s)" (ftag v))
    | Return ->
        let v = st.stack.(st.sp - 1) in
        st.sp <- st.sp - 1;
        pop_frame ();
        push v
    | Halt -> running := false
  done;
  st.sp <- st.sp - 1;
  st.stack.(st.sp)

(* ------------------------------------------------------------------ *)
(* Worlds: primitives + the shared prelude, compiled and evaluated.    *)

let prelude_defs =
  lazy
    (Reader.parse_all_exn Machine.prelude_source
    |> List.map (fun form ->
           match Expand.top_level_define form with
           | Some (name, expr) -> (name, expr)
           | None -> failwith "vm: prelude: expected only definitions"))

(* A fresh world per run: globals are mutable (top-level [set!]), so
   sharing one across parallel measurement domains would race. Building
   one is a single pass over the prelude (~60 small definitions). *)
let fresh_world () =
  let w = new_world () in
  List.iter
    (fun name ->
      let i = gslot w name in
      w.gvals.(i) <- FPrim name)
    (List.sort compare (Prim.names ()));
  let st = new_rstate ~seed:0 in
  List.iter
    (fun (name, expr) ->
      (* The slot exists before the body runs, so self- and forward
         references resolve to it (filled by later definitions). *)
      let slot = gslot w name in
      let entry = compile_unit w expr in
      match run_unit w st ~fuel:50_000_000 ~entry with
      | v -> w.gvals.(slot) <- v
      | exception Fstuck m -> failwith (Printf.sprintf "vm: prelude: %s: %s" name m))
    (Lazy.force prelude_defs);
  w

type compiled = {
  w : world;
  entry : int;
  main_lo : int;
  main_hi : int;  (** end of the whole main unit incl. its templates *)
  tmpl_lo : int;
  psize : int;
}

let compile expr =
  let w = fresh_world () in
  let tmpl_lo = w.tlen in
  let main_lo = w.clen in
  let entry = compile_unit w expr in
  { w; entry; main_lo; main_hi = w.clen; tmpl_lo; psize = Ast.size expr }

let rebase_instr c = function
  | JumpIfFalse t -> JumpIfFalse (t - c.main_lo)
  | Jump t -> Jump (t - c.main_lo)
  | MkClosure i -> MkClosure (i - c.tmpl_lo)
  | i -> i

let main_code c =
  Array.init (c.main_hi - c.main_lo) (fun i ->
      rebase_instr c c.w.code.(c.main_lo + i))

let disassemble c =
  let b = Buffer.create 256 in
  let line pc s note =
    Buffer.add_string b
      (if note = "" then Printf.sprintf "%4d  %s\n" pc s
       else Printf.sprintf "%4d  %-18s ; %s\n" pc s note)
  in
  (* Template entry points inside the main unit, for section headers. *)
  let headers = Hashtbl.create 8 in
  for i = c.tmpl_lo to c.w.tlen - 1 do
    let t = c.w.tmpls.(i) in
    Hashtbl.replace headers t.entry
      (Printf.sprintf "template T%d (%s%s/%d%s):" (i - c.tmpl_lo)
         (if t.tname = "" then "lambda" else t.tname)
         ""
         t.nparams
         (if t.variadic then "+" else ""))
  done;
  Buffer.add_string b "main:\n";
  for pc = c.main_lo to c.main_hi - 1 do
    (match Hashtbl.find_opt headers pc with
    | Some h ->
        Buffer.add_string b h;
        Buffer.add_char b '\n'
    | None -> ());
    let rel = pc - c.main_lo in
    let note = c.w.meta.(pc) in
    match rebase_instr c c.w.code.(pc) with
    | Const i -> line rel (Printf.sprintf "CONST %s" (fwrite c.w.pool.(i))) ""
    | Local (d, i) -> line rel (Printf.sprintf "LOCAL %d.%d" d i) note
    | Global _ -> line rel (Printf.sprintf "GLOBAL %s" note) ""
    | SetLocal (d, i) -> line rel (Printf.sprintf "SETLOCAL %d.%d" d i) note
    | SetGlobal _ -> line rel (Printf.sprintf "SETGLOBAL %s" note) ""
    | MkClosure i -> line rel (Printf.sprintf "CLOSURE T%d" i) note
    | JumpIfFalse t -> line rel (Printf.sprintf "JUMPIFFALSE %d" t) ""
    | Jump t -> line rel (Printf.sprintf "JUMP %d" t) ""
    | Call n -> line rel (Printf.sprintf "CALL %d" n) ""
    | TailCall n -> line rel (Printf.sprintf "TAILCALL %d" n) ""
    | Return -> line rel "RETURN" ""
    | Halt -> line rel "HALT" ""
  done;
  Buffer.contents b

let fast_result ~outcome ~steps ~psize ~output =
  {
    outcome;
    steps;
    program_size = psize;
    output;
  }

let run_fast_with ~fuel ~seed c =
  let st = new_rstate ~seed in
  let outcome =
    match run_unit c.w st ~fuel ~entry:c.entry with
    | v -> Done (fwrite v)
    | exception Fstuck m -> Stuck m
    | exception Invalid_argument m -> Stuck m
    | exception Fabort reason -> Aborted reason
  in
  fast_result ~outcome ~steps:st.steps ~psize:c.psize
    ~output:(Buffer.contents st.fst.out)

(* ================================================================== *)
(* Entry point                                                         *)
(* ================================================================== *)

let exec_program ?(opts = Machine.Run_opts.default) (cfg : Machine.Config.t)
    ~program ~input =
  if cfg.Machine.Config.engine <> Machine.Vm_fast then
    invalid_arg
      "Vm: only the vm-fast engine runs here; the stepper runs in Machine";
  if cfg.Machine.Config.variant <> Machine.Tail then
    invalid_arg "Vm: the fast VM tier supports only the Tail variant";
  if cfg.Machine.Config.perm <> Machine.Left_to_right then
    invalid_arg "Vm: the fast VM tier evaluates left-to-right only";
  (match Space_model.normalize opts.Machine.Run_opts.measure with
  | [ Space_model.Flat ] -> ()
  | _ ->
      invalid_arg "Vm: linked- and log-space measurement requires the stepper");
  if Option.is_some opts.Machine.Run_opts.provenance then
    invalid_arg "Vm: the provenance census requires the stepper";
  if opts.Machine.Run_opts.collect_every_step then
    invalid_arg "Vm: collecting every step requires the stepper";
  let c = compile (Ast.Call (program, [ input ])) in
  let r =
    run_fast_with ~fuel:opts.Machine.Run_opts.fuel
      ~seed:cfg.Machine.Config.seed c
  in
  (match opts.Machine.Run_opts.telemetry with
  | Some tl ->
      Telemetry.note_steps tl r.steps;
      (match r.outcome with
      | Stuck msg -> Telemetry.record_stuck tl ~step:r.steps ~message:msg
      | Done _ | Aborted _ -> ())
  | None -> ());
  r
