(* The space models of Figures 7 and 8: exact unit values, incremental
   store accounting, continuation size caching, the measured S_X
   hierarchy, and flat-vs-linked relationships. *)

module T = Tailspace_core.Types
module Env = Tailspace_core.Types.Env
module Store = Tailspace_core.Store
module Space = Tailspace_core.Space
module SM = Tailspace_core.Space_model
module M = Tailspace_core.Machine
module A = Tailspace_ast.Ast
module B = Tailspace_bignum.Bignum
module E = Tailspace_expander.Expand

let check_int = Alcotest.(check int)

(* --- Figure 7: space of values --- *)

let test_value_space_atoms () =
  check_int "bool" 1 (T.value_space (T.Bool true));
  check_int "symbol" 1 (T.value_space (T.Sym "hello"));
  check_int "char" 1 (T.value_space (T.Char 'x'));
  check_int "nil" 1 (T.value_space T.Nil);
  check_int "unspecified" 1 (T.value_space T.Unspecified);
  check_int "primop" 1 (T.value_space (T.Primop 0))

let test_value_space_numbers () =
  (* space(NUM:z) = 1 + log2 z for positive exact integers *)
  check_int "zero" 1 (T.value_space (T.Int B.zero));
  check_int "one" 2 (T.value_space (T.Int B.one));
  check_int "1024" 12 (T.value_space (T.Int (B.of_int 1024)));
  check_int "negative mirrors" 12 (T.value_space (T.Int (B.of_int (-1024))));
  check_int "2^100" 102 (T.value_space (T.Int (B.pow (B.of_int 2) 100)))

let test_value_space_structures () =
  check_int "pair" 3 (T.value_space (T.Pair (0, 1)));
  check_int "vector" 6 (T.value_space (T.Vector [| 0; 1; 2; 3; 4 |]));
  check_int "empty vector" 1 (T.value_space (T.Vector [||]));
  check_int "string" 6 (T.value_space (T.Str "hello"));
  let env = Env.add_list [ ("a", 0); ("b", 1); ("c", 2) ] Env.empty in
  let lam = { A.params = [ "x" ]; rest = None; body = A.Var "x" } in
  check_int "closure 1+|dom|" 4 (T.value_space (T.Closure (9, lam, env)))

(* --- Figure 7: space of continuations, cached --- *)

let test_cont_space () =
  let env2 = Env.add_list [ ("a", 0); ("b", 1) ] Env.empty in
  let e = A.Var "x" in
  check_int "halt" 1 (T.cont_space T.Halt);
  let sel = T.select ~e1:e ~e2:e ~env:env2 ~next:T.Halt () in
  check_int "select 1+|dom|+halt" 4 (T.cont_space sel);
  let asn = T.assign ~id:"a" ~env:env2 ~next:sel () in
  (* 1 + |dom|(2) + select(4) *)
  check_int "assign chains" 7 (T.cont_space asn);
  let psh =
    T.push ~pending:0 ~remaining:[ (1, e); (2, e) ]
      ~evaluated:[ (0, T.Bool true) ] ~env:env2 ~next:T.Halt ()
  in
  (* 1 + m(2) + n(1) + |dom|(2) + halt(1) *)
  check_int "push" 7 (T.cont_space psh);
  let cal = T.call ~vals:[ T.Nil; T.Nil; T.Nil ] ~next:T.Halt () in
  check_int "call 1+m+halt" 5 (T.cont_space cal);
  check_int "return" 4 (T.cont_space (T.return_gc ~env:env2 ~next:T.Halt ()));
  check_int "return_stack" 4
    (T.cont_space (T.return_stack ~dels:[ 5 ] ~env:env2 ~next:T.Halt ()));
  (* escapes carry their continuation's space *)
  check_int "escape" 8 (T.value_space (T.Escape (7, asn)))

(* --- store accounting --- *)

let test_store_tracking () =
  let s = Store.empty in
  check_int "empty" 0 (Store.space s);
  let s, l1 = Store.alloc s (T.Int (B.of_int 1024)) in
  check_int "alloc adds 1+space" 13 (Store.space s);
  let s, _l2 = Store.alloc s T.Nil in
  check_int "second cell" 15 (Store.space s);
  let s = Store.set s l1 T.Nil in
  check_int "overwrite adjusts" 4 (Store.space s);
  let s = Store.remove_all s [ l1 ] in
  check_int "removal subtracts" 2 (Store.space s);
  check_int "cardinal" 1 (Store.cardinal s)

let test_store_set_unallocated () =
  Alcotest.check_raises "set unallocated"
    (Invalid_argument "Store.set: unallocated location") (fun () ->
      ignore (Store.set Store.empty 99 T.Nil))

let test_env_cardinal () =
  let e = Env.empty in
  check_int "empty" 0 (Env.cardinal e);
  let e = Env.add "x" 0 e in
  let e = Env.add "y" 1 e in
  check_int "two" 2 (Env.cardinal e);
  let e = Env.add "x" 2 e in
  check_int "rebind same dom" 2 (Env.cardinal e);
  let r = Env.restrict e (A.Iset.singleton "y") in
  check_int "restrict" 1 (Env.cardinal r);
  Alcotest.(check (option int)) "restrict keeps" (Some 1) (Env.find_opt "y" r);
  Alcotest.(check (option int)) "restrict drops" None (Env.find_opt "x" r)

let test_env_rebase_transparent () =
  let e = Env.add_list [ ("a", 1); ("b", 2) ] Env.empty in
  let r = Env.rebase e in
  check_int "same cardinal" (Env.cardinal e) (Env.cardinal r);
  Alcotest.(check (option int)) "lookup a" (Some 1) (Env.find_opt "a" r);
  let r2 = Env.add "a" 9 r in
  Alcotest.(check (option int)) "overlay shadows base" (Some 9) (Env.find_opt "a" r2);
  check_int "shadowing keeps |dom|" 2 (Env.cardinal r2);
  (* shadow-aware iteration sees each identifier once *)
  let seen = ref [] in
  Env.iter (fun x l -> seen := (x, l) :: !seen) r2;
  Alcotest.(check int) "two bindings" 2 (List.length !seen);
  Alcotest.(check bool) "a maps to 9" true (List.mem ("a", 9) !seen)

(* --- the store's cell map --- *)

module Locmap = Tailspace_core.Locmap
module Imap = Map.Make (Int)

type map_op =
  | M_add of int * int
  | M_remove of int
  | M_find of int
  | M_mem of int
  | M_fold_from of int

let pp_map_op = function
  | M_add (k, v) -> Printf.sprintf "add %d %d" k v
  | M_remove k -> Printf.sprintf "remove %d" k
  | M_find k -> Printf.sprintf "find_opt %d" k
  | M_mem k -> Printf.sprintf "mem %d" k
  | M_fold_from k -> Printf.sprintf "fold_from %d" k

(* Up to about 2 000 bindings over sparse keys, negative ones and the
   extremes included, with enough repeats that removals and re-adds hit
   bound keys. *)
let gen_map_script st =
  let int n = Random.State.int st n in
  let range = 1 + int 50_000 in
  let key () =
    match int 40 with
    | 0 -> min_int
    | 1 -> max_int
    | 2 -> -int range
    | _ -> int range
  in
  List.init (int 4_000) (fun _ ->
      match int 20 with
      | 0 | 1 | 2 | 3 | 4 | 5 | 6 | 7 | 8 | 9 -> M_add (key (), int 1_000)
      | 10 | 11 | 12 | 13 | 14 | 15 -> M_remove (key ())
      | 16 | 17 -> M_find (key ())
      | 18 -> M_mem (key ())
      | _ -> M_fold_from (key ()))

(* Every query answers alike, every update shares the old map exactly
   when [Map.Make (Int)]'s does, and the final trees are the same node
   for node (the two node types have one layout, so [Obj.repr] compares
   them structurally). *)
let locmap_agrees script =
  let ok = ref true in
  let agree b = if not b then ok := false in
  let lm, im =
    List.fold_left
      (fun (lm, im) op ->
        match op with
        | M_add (k, v) ->
            let lm' = Locmap.add k v lm and im' = Imap.add k v im in
            agree ((lm' == lm) = (im' == im));
            (lm', im')
        | M_remove k ->
            let seen = ref [] in
            let lm' = Locmap.remove_found k (fun k v -> seen := (k, v) :: !seen) lm in
            let im' = Imap.remove k im in
            agree ((lm' == lm) = (im' == im));
            agree
              (!seen
              = match Imap.find_opt k im with Some v -> [ (k, v) ] | None -> []);
            (lm', im')
        | M_find k ->
            agree (Locmap.find_opt k lm = Imap.find_opt k im);
            (lm, im)
        | M_mem k ->
            agree (Locmap.mem k lm = Imap.mem k im);
            (lm, im)
        | M_fold_from lo ->
            let got = Locmap.fold_from lo (fun k v acc -> (k, v) :: acc) lm [] in
            agree
              (List.rev got = List.filter (fun (k, _) -> k >= lo) (Imap.bindings im));
            (lm, im))
      (Locmap.empty, Imap.empty) script
  in
  let iterated = ref [] in
  Locmap.iter (fun k v -> iterated := (k, v) :: !iterated) lm;
  agree (List.rev !iterated = Imap.bindings im);
  agree (List.rev (Locmap.fold (fun k v acc -> (k, v) :: acc) lm []) = Imap.bindings im);
  agree (Obj.repr lm = Obj.repr im);
  !ok

let prop_locmap_matches_map =
  QCheck.Test.make ~count:200
    ~name:"Locmap = Map.Make (Int) on random scripts"
    (QCheck.make
       ~print:(fun script ->
         Printf.sprintf "%d operations: %s ..." (List.length script)
           (String.concat "; " (List.map pp_map_op (List.filteri (fun i _ -> i < 20) script))))
       gen_map_script)
    locmap_agrees

(* The benchmark's [setup_s] reads the GC work that set-up's allocation
   leaves behind, so the store's map must allocate exactly what
   [Map.Make (Int)] does. *)
let test_locmap_allocation () =
  let key i = i * 7919 mod 10_007 in
  let script : 'm. (int -> int -> 'm -> 'm) -> (int -> 'm -> 'm) -> 'm -> 'm =
   fun add remove empty ->
    let rec adds i m = if i = 5_000 then m else adds (i + 1) (add (key i) i m) in
    let rec removes i m = if i >= 5_000 then m else removes (i + 3) (remove (key i) m) in
    let rec readds i m = if i >= 5_000 then m else readds (i + 2) (add (key i) (-i) m) in
    readds 0 (removes 0 (adds 0 empty))
  in
  let words f =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. before
  in
  let std = words (fun () -> script Imap.add Imap.remove Imap.empty) in
  let loc =
    words (fun () ->
        script Locmap.add
          (fun k m -> Locmap.remove_found k (fun _ _ -> ()) m)
          Locmap.empty)
  in
  Alcotest.(check (float 0.)) "minor words" std loc

(* --- the environment's identifier order --- *)

type env_op = E_add of string * int | E_rebase | E_restrict of string list * bool

(* Names that share prefixes and lengths, with the empty name, NUL and
   bytes at and above 0x80, so that any comparison slip between names
   of one length shows. *)
let env_names =
  [| ""; "\000"; "\000\000"; "a"; "b"; "\127"; "\128"; "\255"; "a\000"; "a\255";
     "ab"; "ba"; "abc"; "abd"; "abc\000"; "car"; "cdr"; "cadr"; "cddr"; "caddr";
     "cdddr"; "\128a"; "a\128"; "\255\255" |]

let gen_env_script st =
  let int n = Random.State.int st n in
  let name () =
    if int 4 = 0 then
      String.init (int 4) (fun _ -> "ab\000\128\255".[int 5])
    else env_names.(int (Array.length env_names))
  in
  List.init (1 + int 60) (fun _ ->
      match int 10 with
      | 0 -> E_rebase
      | 1 | 2 -> E_restrict (List.init (int 12) (fun _ -> name ()), int 2 = 0)
      | _ -> E_add (name (), int 100))

let pp_env_op = function
  | E_add (x, l) -> Printf.sprintf "add %S %d" x l
  | E_rebase -> "rebase"
  | E_restrict (xs, cover) ->
      Printf.sprintf "restrict%s {%s}"
        (if cover then " (covering)" else "")
        (String.concat " " (List.map (Printf.sprintf "%S") xs))

(* The reference is an association list, most recent binding first. A
   covering restriction adds the whole domain to its names, so the
   identity path runs as often as the other. *)
let env_agrees script =
  let ok = ref true in
  let agree b = if not b then ok := false in
  let dom r = List.sort_uniq compare (List.map fst r) in
  let check env r =
    let names = List.sort_uniq compare (Array.to_list env_names @ dom r) in
    List.iter
      (fun x ->
        agree (Env.find_opt x env = List.assoc_opt x r);
        agree (Env.mem x env = List.mem_assoc x r))
      names;
    agree (Env.cardinal env = List.length (dom r));
    let expect = List.map (fun x -> (x, List.assoc x r)) (dom r) in
    agree (List.sort compare (Env.bindings env) = expect);
    agree (List.sort compare (Env.locations env) = List.sort compare (List.map snd expect))
  in
  ignore
    (List.fold_left
       (fun (env, r) op ->
         let env, r =
           match op with
           | E_add (x, l) -> (Env.add x l env, (x, l) :: r)
           | E_rebase -> (Env.rebase env, r)
           | E_restrict (xs, cover) ->
               let xs = if cover then xs @ dom r else xs in
               let set = A.Iset.of_list xs in
               let env' = Env.restrict env set in
               if List.for_all (fun x -> A.Iset.mem x set) (dom r) then
                 agree (env' == env);
               (env', List.filter (fun (x, _) -> A.Iset.mem x set) r)
         in
         check env r;
         (env, r))
       (Env.empty, []) script);
  !ok

let prop_env_matches_alist =
  QCheck.Test.make ~count:500
    ~name:"Env = association list on add/rebase/restrict scripts"
    (QCheck.make
       ~print:(fun script -> String.concat "; " (List.map pp_env_op script))
       gen_env_script)
    env_agrees

(* --- linked model (Figure 8) --- *)

let test_linked_counts_shared_bindings_once () =
  let env = Env.add_list [ ("a", 0); ("b", 1); ("c", 2) ] Env.empty in
  let lam = { A.params = []; rest = None; body = A.Quote (A.C_int B.zero) } in
  let store = Store.empty in
  let store, t1 = Store.alloc store T.Unspecified in
  let store, t2 = Store.alloc store T.Unspecified in
  let store, _c1 = Store.alloc store (T.Closure (t1, lam, env)) in
  let store, _c2 = Store.alloc store (T.Closure (t2, lam, env)) in
  let linked =
    Space.linked_config_space ~control:(`Expr (A.Var "x")) ~env:Env.empty
      ~cont:T.Halt ~store
  in
  (* words: halt(1) + 4 cells (1 each) + 2 tags (1 each) + 2 closures
     (1 each) = 9; bindings: the 3 shared ones counted once *)
  check_int "shared env once" 12 linked;
  (* flat counts the environment per closure: store space is
     4 cells + tags 2*1 + closures 2*(1+3) = 4 + 2 + 8 = 14 *)
  check_int "flat copies" 14 (Store.space store)

(* The linked walk as it was before bases were deduplicated, kept as the
   reference: every environment's shadow-aware graph, added pair by pair
   into a (name, location) set. *)
module Reference_linked = struct
  type acc = {
    bindings : (string * T.loc, unit) Hashtbl.t;
    mutable words : int;
  }

  let add_env acc env =
    Env.iter (fun x l -> Hashtbl.replace acc.bindings (x, l) ()) env

  let rec add_value acc (v : T.value) =
    match v with
    | T.Closure (_, _, env) ->
        add_env acc env;
        acc.words <- acc.words + 1
    | T.Escape (_, k) ->
        acc.words <- acc.words + 1;
        add_cont acc k
    | v -> acc.words <- acc.words + T.value_space v

  and add_cont acc (k : T.cont) =
    match k with
    | T.Halt -> acc.words <- acc.words + 1
    | T.Select { env; next; _ } | T.Assign { env; next; _ } ->
        add_env acc env;
        acc.words <- acc.words + 1;
        add_cont acc next
    | T.Push { remaining; evaluated; env; next; _ } ->
        add_env acc env;
        acc.words <-
          acc.words + 1 + List.length remaining + List.length evaluated;
        add_cont acc next
    | T.Call { vals; next; _ } ->
        acc.words <- acc.words + 1 + List.length vals;
        add_cont acc next
    | T.Return { env; next; _ } | T.Return_stack { env; next; _ } ->
        add_env acc env;
        acc.words <- acc.words + 1;
        add_cont acc next

  let space ~control ~env ~cont ~store =
    let acc = { bindings = Hashtbl.create 64; words = 0 } in
    add_env acc env;
    (match control with `Expr _ -> () | `Value v -> add_value acc v);
    add_cont acc cont;
    Store.iter
      (fun _ v ->
        acc.words <- acc.words + 1;
        add_value acc v)
      store;
    acc.words + Hashtbl.length acc.bindings
end

type linked_case = {
  control : [ `Expr of A.expr | `Value of T.value ];
  env : Env.t;
  cont : T.cont;
  store : Store.t;
}

(* Random configurations over six names, twelve low locations and three
   sparse ones far above the binding table's initial size (1024
   entries), so a walk grows the table: several environments over one
   or two physical bases, overlays that shadow base names with the same
   or another location, several names bound at one location, base-less
   and restricted environments, closures and escapes in store cells,
   the register and frames. *)
let gen_linked_case st =
  let int n = Random.State.int st n in
  let names = [| "a"; "b"; "c"; "d"; "e"; "f" |] in
  let name () = names.(int (Array.length names)) in
  let far = Array.init 3 (fun _ -> 1024 + int 100_000) in
  let loc () = if int 5 = 0 then far.(int 3) else int 12 in
  (* consecutive pairs often share a location under different names *)
  let some_bindings n =
    List.fold_left
      (fun acc _ ->
        let l = match acc with (_, l) :: _ when int 3 = 0 -> l | _ -> loc () in
        (name (), l) :: acc)
      [] (List.init n Fun.id)
  in
  let new_base () = Env.rebase (Env.add_list (some_bindings (1 + int 6)) Env.empty) in
  let bases = if int 2 = 0 then [| new_base () |] else [| new_base (); new_base () |] in
  let over_base () =
    let base = bases.(int (Array.length bases)) in
    let overlay =
      List.init (int 4) (fun _ ->
          let x = name () in
          match Env.find_opt x base with
          | Some l when int 2 = 0 -> (x, l)
          | _ -> (x, loc ()))
    in
    Env.add_list overlay base
  in
  let gen_env () =
    match int 6 with
    | 0 -> Env.add_list (some_bindings (int 4)) Env.empty
    | 1 ->
        Env.restrict (over_base ())
          (A.Iset.of_list (List.filter (fun _ -> int 3 > 0) (Array.to_list names)))
    | _ -> over_base ()
  in
  let lam = { A.params = []; rest = None; body = A.Var "a" } in
  let e = A.Var "a" in
  let rec gen_value depth =
    match int 5 with
    | 0 | 1 -> T.Closure (loc (), lam, gen_env ())
    | 2 when depth > 0 -> T.Escape (loc (), gen_cont (depth - 1))
    | 3 -> T.Pair (loc (), loc ())
    | _ -> T.Int (B.of_int (int 1000))
  and gen_cont depth =
    if depth = 0 then T.Halt
    else
      let next = gen_cont (depth - 1) in
      match int 6 with
      | 0 -> T.select ~e1:e ~e2:e ~env:(gen_env ()) ~next ()
      | 1 -> T.assign ~id:"a" ~env:(gen_env ()) ~next ()
      | 2 ->
          T.push ~pending:1 ~remaining:[ (2, e) ]
            ~evaluated:[ (0, gen_value (depth - 1)) ]
            ~env:(gen_env ()) ~next ()
      | 3 -> T.call ~vals:[ gen_value (depth - 1) ] ~next ()
      | 4 -> T.return_gc ~env:(gen_env ()) ~next ()
      | _ -> T.return_stack ~dels:[ loc () ] ~env:(gen_env ()) ~next ()
  in
  let store, _ =
    Store.alloc_many Store.empty (List.init (int 8) (fun _ -> gen_value 2))
  in
  {
    control = (if int 2 = 0 then `Expr e else `Value (gen_value 2));
    env = gen_env ();
    cont = gen_cont (int 5);
    store;
  }

let linked_of c =
  Space.linked_config_space ~control:c.control ~env:c.env ~cont:c.cont
    ~store:c.store

let reference_of c =
  Reference_linked.space ~control:c.control ~env:c.env ~cont:c.cont
    ~store:c.store

let prop_linked_matches_reference =
  QCheck.Test.make ~count:2000
    ~name:"linked walk = per-environment reference on random configurations"
    (QCheck.make
       ~print:(fun c ->
         Printf.sprintf "linked %d, reference %d, %d store cells" (linked_of c)
           (reference_of c) (Store.cardinal c.store))
       gen_linked_case)
    (fun c -> linked_of c = reference_of c)

(* --- the binding table --- *)

let test_linked_after_raise () =
  (* A negative location is one the allocator never hands out; the walk
     may reject it after adding the pairs before it. Either way the next
     walk counts from an empty binding set. *)
  let case env = { control = `Expr (A.Var "a"); env; cont = T.Halt; store = Store.empty } in
  let bad = case (Env.add_list [ ("a", 3); ("b", 5); ("z", -1) ] Env.empty) in
  (match linked_of bad with _ -> () | exception Invalid_argument _ -> ());
  let good = case (Env.add_list [ ("a", 3); ("b", 5); ("c", 5) ] Env.empty) in
  check_int "next walk" (reference_of good) (linked_of good)

let test_linked_table_grows () =
  (* A fresh domain starts with a fresh binding table of 1024 entries:
     walks over locations far above it grow it and stay exact. *)
  Domain.join
    (Domain.spawn (fun () ->
         List.iter
           (fun far ->
             let lam = { A.params = []; rest = None; body = A.Var "a" } in
             let captured = Env.add_list [ ("a", far); ("e", far + 1) ] Env.empty in
             let store, _ =
               Store.alloc_many Store.empty
                 [ T.Closure (0, lam, captured); T.Pair (far, far + 2) ]
             in
             let c =
               {
                 control = `Expr (A.Var "a");
                 env = Env.add_list [ ("a", far); ("b", far); ("c", 7) ] Env.empty;
                 cont =
                   T.return_gc
                     ~env:(Env.add_list [ ("d", far / 2); ("b", far) ] Env.empty)
                     ~next:T.Halt ();
                 store;
               }
             in
             check_int (Printf.sprintf "locations near %d" far) (reference_of c)
               (linked_of c))
           [ 5_000; 60_000; 3_000; 200_000 ]))

let test_linked_leq_flat_on_runs () =
  (* U_X <= S_X pointwise (§13), checked on real measured runs *)
  List.iter
    (fun (variant, src) ->
      let t = M.create_with (M.Config.make ~variant ()) in
      let r =
        M.exec_string
          ~opts:(M.Run_opts.make ~measure:[ SM.Flat; SM.Linked ] ())
          t src
      in
      match (r.M.outcome, M.peak_linked r) with
      | M.Done _, Some u ->
          Alcotest.(check bool)
            (M.variant_name variant ^ " U <= S")
            true
            (u <= M.peak_space r)
      | _ -> Alcotest.fail "expected measured Done")
    [
      (M.Tail, "(define (f n) (if (zero? n) 0 (f (- n 1)))) (f 30)");
      (M.Gc, "(define (f n) (if (zero? n) 0 (f (- n 1)))) (f 30)");
      (M.Tail, "(map (lambda (x) (lambda () x)) '(1 2 3 4))");
      (M.Evlis, "(let ((v (make-vector 10))) (vector-length v))");
    ]

(* --- measured hierarchy --- *)

let space_of variant src =
  let t = M.create_with (M.Config.make ~variant ()) in
  let r = M.exec_string t src in
  match r.M.outcome with
  | M.Done _ -> M.space_consumption r
  | M.Stuck m -> Alcotest.failf "stuck: %s" m
  | M.Aborted { reason; _ } ->
      Alcotest.failf "aborted: %s"
        (Tailspace_resilience.Resilience.abort_reason_message reason)

let test_theorem24_chain_samples () =
  List.iter
    (fun src ->
      let s v = space_of v src in
      let tail = s M.Tail
      and gc = s M.Gc
      and stack = s M.Stack
      and evlis = s M.Evlis
      and free = s M.Free
      and sfs = s M.Sfs in
      Alcotest.(check bool) "tail<=gc" true (tail <= gc);
      Alcotest.(check bool) "gc<=stack" true (gc <= stack);
      Alcotest.(check bool) "sfs<=evlis" true (sfs <= evlis);
      Alcotest.(check bool) "evlis<=tail" true (evlis <= tail);
      Alcotest.(check bool) "sfs<=free" true (sfs <= free);
      Alcotest.(check bool) "free<=tail" true (free <= tail))
    [
      "(define (f n) (if (zero? n) 0 (f (- n 1)))) (f 25)";
      "(define (sum l) (if (null? l) 0 (+ (car l) (sum (cdr l))))) (sum '(1 2 3 4))";
      "(map (lambda (x) (* x x)) '(1 2 3))";
      "(call/cc (lambda (k) (k 1)))";
    ]

let test_space_consumption_includes_program_size () =
  let t = M.create_with M.Config.default in
  let e = E.expression_of_string "(+ 1 2)" in
  let r = M.exec t e in
  Alcotest.(check int) "|P|" (A.size e) r.M.program_size;
  Alcotest.(check int) "S = |P| + peak" (r.M.program_size + M.peak_space r)
    (M.space_consumption r)

let test_proper_tail_recursion_constant_space () =
  (* the defining property: iteration in constant space under I_tail *)
  let s n =
    space_of M.Tail
      (Printf.sprintf "(define (loop n) (if (zero? n) 'ok (loop (- n 1)))) (loop %d)" n)
  in
  let s100 = s 100 and s10000 = s 10000 in
  Alcotest.(check bool)
    (Printf.sprintf "S(10000)=%d within 2%% of S(100)=%d" s10000 s100)
    true
    (float_of_int s10000 <= 1.02 *. float_of_int s100)

let test_improper_linear_space () =
  let s n =
    space_of M.Gc
      (Printf.sprintf "(define (loop n) (if (zero? n) 'ok (loop (- n 1)))) (loop %d)" n)
  in
  let s100 = s 100 and s400 = s 400 in
  Alcotest.(check bool) "gc grows ~4x" true
    (float_of_int s400 >= 2.5 *. float_of_int s100)

let () =
  Alcotest.run "space"
    [
      ( "figure7",
        [
          Alcotest.test_case "atoms" `Quick test_value_space_atoms;
          Alcotest.test_case "numbers" `Quick test_value_space_numbers;
          Alcotest.test_case "structures" `Quick test_value_space_structures;
          Alcotest.test_case "continuations" `Quick test_cont_space;
        ] );
      ( "store-env",
        [
          Alcotest.test_case "store tracking" `Quick test_store_tracking;
          Alcotest.test_case "store set errors" `Quick test_store_set_unallocated;
          Alcotest.test_case "env cardinal" `Quick test_env_cardinal;
          Alcotest.test_case "env rebase" `Quick test_env_rebase_transparent;
          QCheck_alcotest.to_alcotest prop_locmap_matches_map;
          Alcotest.test_case "cell map allocation" `Quick test_locmap_allocation;
          QCheck_alcotest.to_alcotest prop_env_matches_alist;
        ] );
      ( "figure8",
        [
          Alcotest.test_case "shared bindings once" `Quick
            test_linked_counts_shared_bindings_once;
          Alcotest.test_case "U <= S" `Quick test_linked_leq_flat_on_runs;
          QCheck_alcotest.to_alcotest prop_linked_matches_reference;
        ] );
      ( "bindings",
        [
          Alcotest.test_case "exact after a raise" `Quick test_linked_after_raise;
          Alcotest.test_case "grows in a fresh domain" `Quick
            test_linked_table_grows;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "theorem 24 samples" `Quick test_theorem24_chain_samples;
          Alcotest.test_case "S includes |P|" `Quick
            test_space_consumption_includes_program_size;
          Alcotest.test_case "tail: constant-space loop" `Quick
            test_proper_tail_recursion_constant_space;
          Alcotest.test_case "gc: linear-space loop" `Quick test_improper_linear_space;
        ] );
    ]
