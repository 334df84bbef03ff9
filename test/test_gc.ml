(* The garbage-collection rule: reachability through the store, the
   once-per-base optimization's transparency and the shared prelude base
   it relies on, the per-domain mark table, Return_stack pinning, the
   I_stack occurs-check, the old generation (young-only collections
   and occurs-checks against their whole-store twins), and the
   collection history (watermark collections against whole-store ones,
   the scoped occurs-check against the whole-configuration scan). *)

module T = Tailspace_core.Types
module Env = Tailspace_core.Types.Env
module Store = Tailspace_core.Store
module Gc = Tailspace_core.Gc
module M = Tailspace_core.Machine
module Prim = Tailspace_core.Prim
module Pool = Tailspace_parallel.Pool
module SM = Tailspace_core.Space_model

let check_int = Alcotest.(check int)
let cells store = List.rev (Store.fold (fun l _ acc -> l :: acc) store [])

let lam body = { Tailspace_ast.Ast.params = []; rest = None; body }
let unit_body = Tailspace_ast.Ast.Quote Tailspace_ast.Ast.C_nil

let test_collect_unreachable () =
  let s = Store.empty in
  let s, live = Store.alloc s T.Nil in
  let s, dead = Store.alloc s (T.Sym "garbage") in
  let env = Env.add "x" live Env.empty in
  let s', n = Gc.collect ~env ~cont:T.Halt s in
  check_int "one reclaimed" 1 n;
  Alcotest.(check bool) "live kept" true (Store.mem s' live);
  Alcotest.(check bool) "dead gone" false (Store.mem s' dead)

let test_collect_transitive () =
  let s = Store.empty in
  let s, inner = Store.alloc s (T.Sym "deep") in
  let s, a = Store.alloc s (T.Int Tailspace_bignum.Bignum.zero) in
  let s, d = Store.alloc s T.Nil in
  let s, pair_cell = Store.alloc s (T.Pair (a, d)) in
  let s = Store.set s d (T.Vector [| inner |]) in
  let env = Env.add "p" pair_cell Env.empty in
  let s', n = Gc.collect ~env ~cont:T.Halt s in
  check_int "nothing reclaimed" 0 n;
  Alcotest.(check bool) "inner reachable via vector in cdr" true (Store.mem s' inner)

let test_collect_through_closure_env () =
  let s = Store.empty in
  let s, captured = Store.alloc s (T.Sym "kept") in
  let s, tag = Store.alloc s T.Unspecified in
  let env = Env.add "x" captured Env.empty in
  let closure = T.Closure (tag, lam unit_body, env) in
  let s, home = Store.alloc s closure in
  let roots_env = Env.add "f" home Env.empty in
  let s', n = Gc.collect ~env:roots_env ~cont:T.Halt s in
  check_int "none reclaimed" 0 n;
  Alcotest.(check bool) "captured kept" true (Store.mem s' captured)

let test_collect_through_cont () =
  let s = Store.empty in
  let s, in_frame = Store.alloc s (T.Sym "frame-held") in
  let s, loose = Store.alloc s (T.Sym "loose") in
  let frame_env = Env.add "y" in_frame Env.empty in
  let k = T.select ~e1:unit_body ~e2:unit_body ~env:frame_env ~next:T.Halt () in
  let s', n = Gc.collect ~env:Env.empty ~cont:k s in
  check_int "loose reclaimed" 1 n;
  Alcotest.(check bool) "frame binding kept" true (Store.mem s' in_frame);
  Alcotest.(check bool) "loose gone" false (Store.mem s' loose)

let test_collect_through_escape () =
  let s = Store.empty in
  let s, held = Store.alloc s (T.Sym "held") in
  let s, tag = Store.alloc s T.Unspecified in
  let k = T.assign ~id:"x" ~env:(Env.add "x" held Env.empty) ~next:T.Halt () in
  let escape = T.Escape (tag, k) in
  let s, home = Store.alloc s escape in
  let s', n =
    Gc.collect ~value:(T.Vector [| home |]) ~env:Env.empty ~cont:T.Halt s
  in
  check_int "none reclaimed" 0 n;
  Alcotest.(check bool) "held via captured continuation" true (Store.mem s' held)

let test_return_stack_pins_deletions () =
  (* §8: the deletion set extends the lifetime of garbage to that of
     Algol-like stack allocation — A counts as an occurrence. *)
  let s = Store.empty in
  let s, pinned = Store.alloc s (T.Sym "garbage-but-pinned") in
  let k = T.return_stack ~dels:[ pinned ] ~env:Env.empty ~next:T.Halt () in
  let s', n = Gc.collect ~env:Env.empty ~cont:k s in
  check_int "nothing reclaimed" 0 n;
  Alcotest.(check bool) "pinned" true (Store.mem s' pinned)

let test_rebased_env_roots () =
  (* the once-per-base optimization must not lose roots *)
  let s = Store.empty in
  let s, a = Store.alloc s (T.Sym "a") in
  let s, b = Store.alloc s (T.Sym "b") in
  let base = Env.rebase (Env.add_list [ ("a", a); ("b", b) ] Env.empty) in
  let e1 = Env.add "x" a base in
  let k = T.select ~e1:unit_body ~e2:unit_body ~env:e1 ~next:T.Halt () in
  let s', n = Gc.collect ~env:base ~cont:k s in
  check_int "none reclaimed" 0 n;
  Alcotest.(check bool) "b survives via shared base" true (Store.mem s' b)

(* --- the shared prelude base --- *)

let prelude_names () =
  List.filter_map
    (fun form -> Option.map fst (Tailspace_expander.Expand.top_level_define form))
    (Tailspace_sexp.Reader.parse_all_exn M.prelude_source)

let test_prelude_shadows_no_primitive () =
  (* A prelude name that shadowed a primitive would sit in a prelude
     closure's overlay over the primitive base, and the collector would
     pin the dead primitive cell. *)
  let prims = List.map fst (Prim.initial_bindings ()) in
  let names = prelude_names () in
  check_int "primitives" 69 (List.length prims);
  check_int "distinct prelude names" 30
    (List.length (List.sort_uniq String.compare names));
  List.iter
    (fun x ->
      Alcotest.(check bool) (x ^ " is not a primitive") false (List.mem x prims))
    names

let test_prelude_closures_share_base () =
  List.iter
    (fun variant ->
      let env, store = M.initial (M.create_with (M.Config.make ~variant ())) in
      let closure_env x =
        match Option.bind (Env.find_opt x env) (Store.find_opt store) with
        | Some (T.Closure (_, _, cenv)) -> cenv
        | _ ->
            Alcotest.failf "%s: prelude %s is not a closure"
              (M.variant_name variant) x
      in
      match List.map closure_env (prelude_names ()) with
      | [] -> Alcotest.fail "empty prelude"
      | first :: _ as envs ->
          List.iter
            (fun cenv ->
              Alcotest.(check bool)
                (M.variant_name variant ^ ": has a base")
                true (Env.has_base cenv);
              Alcotest.(check bool)
                (M.variant_name variant ^ ": one shared base")
                true (Env.base_eq first cenv))
            envs)
    [ M.Tail; M.Gc; M.Stack; M.Evlis ]

let test_initial_world_fully_live () =
  (* The young-only collection rests on this: the world a run starts
     from is all reachable from its global base, so a prelude edit that
     left garbage must fail here rather than skew peaks. *)
  List.iter
    (fun variant ->
      let env, store = M.initial (M.create_with (M.Config.make ~variant ())) in
      let _, freed = Gc.collect ~env ~cont:T.Halt store in
      check_int (M.variant_name variant ^ ": freed") 0 freed)
    M.all_variants

let test_initial_world_unchanged () =
  let env, store = M.initial (M.create_with M.Config.default) in
  check_int "global bindings" 99 (Env.cardinal env);
  check_int "store flat words" 2793 (Store.space store)

(* --- the mark table --- *)

let test_recollect_keeps_everything () =
  (* Marks a collection leaves belong to its record: collecting a
     collected configuration again frees nothing, and a cell that has
     since lost its last root is freed rather than kept by a stale
     mark. *)
  let env, store = M.initial (M.create_with M.Config.default) in
  let store, _garbage = Store.alloc store (T.Sym "garbage") in
  let store, extra = Store.alloc store (T.Sym "extra") in
  let rooted = Env.add "extra" extra env in
  let s1, n1 = Gc.collect ~env:rooted ~cont:T.Halt store in
  check_int "garbage reclaimed" 1 n1;
  let s2, n2 = Gc.collect ~env:rooted ~cont:T.Halt s1 in
  check_int "nothing left to reclaim" 0 n2;
  Alcotest.(check (list int)) "every cell kept" (cells s1) (cells s2);
  let s3, n3 = Gc.collect ~env ~cont:T.Halt s2 in
  check_int "unrooted cell reclaimed" 1 n3;
  Alcotest.(check bool) "extra gone" false (Store.mem s3 extra)

let test_marks_cleared_after_raise () =
  (* A negative location is one the allocator never hands out; the
     tracer may reject it after marking [a]. Either way the next
     collection must start from a clean table. *)
  let s, a = Store.alloc Store.empty (T.Sym "a") in
  (match Gc.collect ~value:(T.Vector [| a; -1 |]) ~env:Env.empty ~cont:T.Halt s with
  | _ -> ()
  | exception Invalid_argument _ -> ());
  let s', n = Gc.collect ~env:Env.empty ~cont:T.Halt s in
  check_int "a reclaimed" 1 n;
  check_int "store empty" 0 (Store.cardinal s')

let test_table_grows () =
  (* A fresh domain starts with a fresh table, smaller than these
     stores: live cells beyond it grow it, garbage beyond it is swept. *)
  Domain.join
    (Domain.spawn (fun () ->
         List.iter
           (fun (n, live) ->
             let s, locs = Store.alloc_many Store.empty (List.init n (fun _ -> T.Nil)) in
             let kept = List.filter live locs in
             let s, vec = Store.alloc s (T.Vector (Array.of_list kept)) in
             let s', freed =
               Gc.collect ~value:(T.Vector [| vec |]) ~env:Env.empty ~cont:T.Halt s
             in
             check_int "freed" (n - List.length kept) freed;
             Alcotest.(check (list int)) "kept" (kept @ [ vec ]) (cells s'))
           [
             (10_000, fun l -> l < 100);
             (10_000, fun l -> l mod 3 = 0);
             (50_000, fun l -> l mod 7 = 0);
             (20_000, fun l -> l mod 2 = 1);
           ]))

let test_return_stack_dangling_dels () =
  (* A deletion set may name a location already removed from the store,
     or one never allocated: neither raises or changes the result. *)
  let s = Store.empty in
  let s, kept = Store.alloc s (T.Sym "kept") in
  let s, gone = Store.alloc s (T.Sym "gone") in
  let s, _loose = Store.alloc s (T.Sym "loose") in
  let s = Store.remove_all s [ gone ] in
  let collect dels =
    Gc.collect ~env:Env.empty
      ~cont:(T.return_stack ~dels ~env:Env.empty ~next:T.Halt ())
      s
  in
  let s1, n1 = collect [ kept ] in
  let s2, n2 = collect [ gone; kept; 1_000_000 ] in
  check_int "only the loose cell" 1 n1;
  check_int "same reclaimed" n1 n2;
  Alcotest.(check (list int)) "same store" (cells s1) (cells s2)

let test_two_domains_agree () =
  (* One mark table and one Linked/Log binding table per domain: runs
     collecting and walking at the same time on two pool domains give
     the same figures and final stores as serial runs. *)
  let models = [ SM.Flat; SM.Linked; SM.Log ] in
  let opts = M.Run_opts.make ~measure:models () in
  let run (variant, src) =
    let r =
      M.exec_string ~opts (M.create_with (M.Config.make ~variant ())) src
    in
    match r.M.outcome with
    | M.Done { answer; store; _ } ->
        let peaks = List.map (M.peak_of r) models in
        (answer, r.M.steps, peaks, r.M.gc_runs, cells store)
    | _ -> Alcotest.fail "expected Done"
  in
  let jobs =
    List.concat_map
      (fun src -> [ (M.Tail, src); (M.Gc, src) ])
      [
        "(define (churn n) (if (zero? n) 'ok (churn (- n 1)))) (churn 1500)";
        "(define (build n) (if (zero? n) '() (cons n (build (- n 1))))) \
         (length (build 200))";
        "(length (map (lambda (x) (cons x x)) (vector->list (make-vector 150 1))))";
        "(define (loop i acc) (if (zero? i) acc (loop (- i 1) (list i acc)))) \
         (car (loop 400 '()))";
      ]
  in
  let serial = List.map run jobs in
  let parallel =
    let pool = Pool.create ~jobs:2 () in
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () -> Pool.map ~pool run jobs)
  in
  List.iter2
    (fun (a1, st1, p1, g1, c1) (a2, st2, p2, g2, c2) ->
      Alcotest.(check string) "answer" a1 a2;
      check_int "steps" st1 st2;
      Alcotest.(check (list (option int))) "flat, linked and log peaks" p1 p2;
      check_int "collections" g1 g2;
      Alcotest.(check (list int)) "final store" c1 c2)
    serial parallel

let table_of locs =
  let h = Hashtbl.create 4 in
  List.iter (fun l -> Hashtbl.replace h l ()) locs;
  h

let test_occurs_check () =
  let s = Store.empty in
  let s, target = Store.alloc s (T.Sym "t") in
  let s, other = Store.alloc s (T.Sym "o") in
  let s, referencing = Store.alloc s (T.Pair (target, other)) in
  ignore referencing;
  let retained = Store.remove_all s [ target ] in
  (* target occurs in the retained pair cell *)
  let hits =
    Gc.occurs_in_retained ~candidates:(table_of [ target ])
      ~value:(T.Vector [||]) ~retained
  in
  check_int "found via store" 1 (Hashtbl.length hits);
  (* but not when the referencing cell is also deleted *)
  let retained2 = Store.remove_all s [ target; referencing ] in
  let hits2 =
    Gc.occurs_in_retained ~candidates:(table_of [ target ])
      ~value:(T.Vector [||]) ~retained:retained2
  in
  check_int "no occurrence" 0 (Hashtbl.length hits2)

let test_occurs_via_env_and_value () =
  (* The returned value is scanned, a closure's environment included;
     the frame's environment and continuation are older than the
     candidates and are not parameters of the check. *)
  let s = Store.empty in
  let s, tag = Store.alloc s T.Unspecified in
  let s, target = Store.alloc s (T.Sym "t") in
  let env = Env.add "x" target Env.empty in
  let closure = T.Closure (tag, lam unit_body, env) in
  let hits =
    Gc.occurs_in_retained ~candidates:(table_of [ target ])
      ~value:closure ~retained:(Store.remove_all s [ target ])
  in
  check_int "found via a closure's env" 1 (Hashtbl.length hits);
  let hits2 =
    Gc.occurs_in_retained ~candidates:(table_of [ target ])
      ~value:(T.Vector [| target |])
      ~retained:(Store.remove_all s [ target ])
  in
  check_int "found via control value" 1 (Hashtbl.length hits2)

let test_gc_does_not_change_answers () =
  (* linked measurement forces a collection at every step; answers and
     flat peaks must match the lazy schedule *)
  List.iter
    (fun src ->
      let t = M.create_with M.Config.default in
      let lazy_r = M.exec_string t src in
      let eager_r =
        M.exec_string
          ~opts:
            (M.Run_opts.make
               ~measure:
                 [ Tailspace_core.Space_model.Flat;
                   Tailspace_core.Space_model.Linked ]
               ())
          t src
      in
      match (lazy_r.M.outcome, eager_r.M.outcome) with
      | M.Done { answer = a1; _ }, M.Done { answer = a2; _ } ->
          Alcotest.(check string) "answers agree" a1 a2;
          Alcotest.(check int) "flat peaks agree" (M.peak_space lazy_r)
            (M.peak_space eager_r)
      | _ -> Alcotest.fail "expected Done")
    [
      "(define (f n) (if (zero? n) 'ok (f (- n 1)))) (f 40)";
      "(length (map (lambda (x) (cons x x)) '(1 2 3 4 5)))";
      "(define v (make-vector 5 0)) (vector-set! v 3 'x) (vector-ref v 3)";
    ]

let test_gc_counts_reported () =
  let t = M.create_with M.Config.default in
  let r =
    M.exec_string t
      "(define (churn n) (if (zero? n) 'ok (churn (- n 1)))) (churn 2000)"
  in
  Alcotest.(check bool) "collector ran" true (r.M.gc_runs > 0)

(* --- the old generation --- *)

(* One random configuration, built by a seeded script: a closed world
   of old cells, all reachable from one base (the world environment's),
   with a second base over some of them that old closures capture; then
   young cells over any location — pairs, vectors, closures and escapes
   over the world base, the second base, bases built from young cells
   and base-less overlays; writes to old and young cells; removals of
   young cells, as I_stack deletes them; and roots with Return_stack
   deletion sets and dangling locations. [old_gen] starts the run once
   the world is built; every random draw is the same either way. *)
type script = {
  rng : Random.State.t;
  mutable st : Store.t;
  mutable old : T.loc list;
  mutable young : T.loc list;
  mutable removed : T.loc list;
  mutable bases : Env.t list;
}

let draw sc n = Random.State.int sc.rng n
let pick sc xs = List.nth xs (draw sc (List.length xs))

(* Dangling locations are removed ones or ones never handed out; a
   location only allocated later would let an old cell name a young
   one without a write, which no run can do. *)
let some_loc sc =
  match draw sc 12 with
  | 0 -> 1_000_000 + draw sc 3
  | 1 when sc.removed <> [] -> pick sc sc.removed
  | _ -> (
      match sc.old @ sc.young with
      | [] -> 1_000_000
      | locs -> pick sc locs)

let some_env sc =
  let overlay =
    List.init (draw sc 3) (fun i -> (Printf.sprintf "x%d" i, some_loc sc))
  in
  let base =
    match draw sc (List.length sc.bases + 1) with
    | 0 -> Env.empty
    | i -> List.nth sc.bases (i - 1)
  in
  Env.add_list overlay base

let rec some_cont sc depth =
  if depth = 0 || draw sc 3 = 0 then T.Halt
  else some_frame sc (some_cont sc (depth - 1))

and some_frame sc next =
  match draw sc 5 with
  | 0 -> T.select ~e1:unit_body ~e2:unit_body ~env:(some_env sc) ~next ()
  | 1 -> T.return_gc ~env:(some_env sc) ~next ()
  | 2 ->
      let dels = List.init (draw sc 3) (fun _ -> some_loc sc) in
      T.return_stack ~dels ~env:(some_env sc) ~next ()
  | 3 -> T.call ~vals:[ some_value sc ] ~next ()
  | _ ->
      T.push ~pending:0 ~remaining:[]
        ~evaluated:[ (1, some_value sc) ]
        ~env:(some_env sc) ~next ()

(* A value over existing locations, allocating nothing. *)
and some_value sc : T.value =
  match draw sc 6 with
  | 0 -> T.Sym "s"
  | 1 | 2 -> T.Pair (some_loc sc, some_loc sc)
  | 3 -> T.Vector (Array.init (draw sc 3) (fun _ -> some_loc sc))
  | 4 -> T.Closure (some_loc sc, lam unit_body, some_env sc)
  | _ -> T.Escape (some_loc sc, some_cont sc 2)

let alloc sc v =
  let st, l = Store.alloc sc.st v in
  sc.st <- st;
  l

(* A stored value: closures and escapes get a fresh tag cell first, as
   the machine allocates them. *)
let alloc_value sc =
  match draw sc 4 with
  | 0 ->
      let tag = alloc sc T.Unspecified in
      [ tag; alloc sc (T.Closure (tag, lam unit_body, some_env sc)) ]
  | 1 ->
      let tag = alloc sc T.Unspecified in
      [ tag; alloc sc (T.Escape (tag, some_cont sc 2)) ]
  | _ -> [ alloc sc (some_value sc) ]

let bindings_of locs = List.mapi (fun i l -> (Printf.sprintf "g%d" i, l)) locs

let build_world sc =
  let n = 1 + draw sc 12 in
  for i = 1 to n do
    sc.old <- sc.old @ alloc_value sc;
    if i = (n + 1) / 2 then
      let some = List.filter (fun _ -> draw sc 2 = 0) sc.old in
      sc.bases <- [ Env.rebase (Env.add_list (bindings_of some) Env.empty) ]
  done;
  (* Old cells name only earlier ones, so binding every cell no other
     old cell names, and some others, reaches the whole world. *)
  let named =
    List.concat_map
      (fun l -> T.value_locs (Option.get (Store.find_opt sc.st l)))
      sc.old
  in
  let roots =
    List.filter (fun l -> (not (List.mem l named)) || draw sc 3 = 0) sc.old
  in
  let world = Env.rebase (Env.add_list (bindings_of roots) Env.empty) in
  sc.bases <- world :: sc.bases;
  world

let young_ops sc =
  for _ = 1 to draw sc 24 do
    match draw sc 7 with
    | 0 | 1 -> sc.young <- sc.young @ alloc_value sc
    | 2 | 3 | 4 -> (
        match List.filter (Store.mem sc.st) (sc.old @ sc.young) with
        | [] -> ()
        | present -> sc.st <- Store.set sc.st (pick sc present) (some_value sc))
    | 5 -> (
        match List.filter (Store.mem sc.st) sc.young with
        | [] -> ()
        | present ->
            let l = pick sc present in
            sc.st <- Store.remove_all sc.st [ l ];
            sc.removed <- l :: sc.removed)
    | _ ->
        let some = List.init (1 + draw sc 3) (fun _ -> some_loc sc) in
        sc.bases <- Env.rebase (Env.add_list (bindings_of some) Env.empty) :: sc.bases
  done

let some_roots sc =
  let value = T.Vector (Array.init (draw sc 3) (fun _ -> some_loc sc)) in
  (value, some_env sc, some_cont sc 3)

let sorted_keys h = List.sort compare (List.of_seq (Hashtbl.to_seq_keys h))

(* Two collections with one world handle, with more young work between
   them, and an I_stack occurs-check of a random deletion set. *)
let generation_run ~old_gen seed =
  let sc =
    { rng = Random.State.make [| seed |]; st = Store.empty; old = []; young = [];
      removed = []; bases = [] }
  in
  let world_env = build_world sc in
  if old_gen then sc.st <- Store.start_run sc.st;
  let world = Gc.world world_env in
  let round () =
    young_ops sc;
    let value, env, cont = some_roots sc in
    let dels = List.filter (fun _ -> draw sc 2 = 0) sc.young in
    let hits =
      Gc.occurs_in_retained ~candidates:(table_of dels) ~value
        ~retained:(Store.remove_all sc.st dels)
    in
    let st, freed = Gc.collect ~world ~value ~env ~cont sc.st in
    sc.st <- st;
    (sorted_keys hits, cells st, Store.space st, Store.cardinal st, freed)
  in
  let first = round () in
  let second = round () in
  [ first; second ]

let prop_young_only_exact =
  QCheck.Test.make ~count:2000
    ~name:"young-only collection and occurs-check = whole-store ones"
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000_000))
    (fun seed ->
      generation_run ~old_gen:true seed = generation_run ~old_gen:false seed)

(* --- the collection history --- *)

let next_frame (k : T.cont) =
  match k with
  | Halt -> T.Halt
  | Select { next; _ }
  | Assign { next; _ }
  | Push { next; _ }
  | Call { next; _ }
  | Return { next; _ }
  | Return_stack { next; _ } ->
      next

(* A copy of the top [m] frames: the same contents, physically new. *)
let rec copy_top (k : T.cont) m =
  if m = 0 then k
  else
    let next = copy_top (next_frame k) (m - 1) in
    match k with
    | Halt -> T.Halt
    | Select r -> T.Select { r with next }
    | Assign r -> T.Assign { r with next }
    | Push r -> T.Push { r with next }
    | Call r -> T.Call { r with next }
    | Return r -> T.Return { r with next }
    | Return_stack r -> T.Return_stack { r with next }

(* What a whole-store collection frees, by definition: reachability from
   the roots with a table of its own, bases traced whole (shadowed
   bindings included, as the collector traces them). *)
let whole_store_dead ~control ~env ~cont store =
  let seen = Hashtbl.create 64 in
  let rec visit l =
    if not (Hashtbl.mem seen l) then
      match Store.find_opt store l with
      | None -> ()
      | Some v ->
          Hashtbl.replace seen l ();
          value v
  and value (v : T.value) =
    match v with
    | Pair (a, d) ->
        visit a;
        visit d
    | Vector locs -> Array.iter visit locs
    | Closure (tag, _, env) ->
        visit tag;
        environment env
    | Escape (tag, k) ->
        visit tag;
        frames k
    | _ -> ()
  and environment env =
    Env.iter_overlay (fun _ l -> visit l) env;
    Env.iter_base (fun _ l -> visit l) env
  and frames (k : T.cont) =
    match k with
    | Halt -> ()
    | Select { env; next; _ } | Assign { env; next; _ } | Return { env; next; _ } ->
        environment env;
        frames next
    | Push { evaluated; env; next; _ } ->
        environment env;
        List.iter (fun (_, v) -> value v) evaluated;
        frames next
    | Call { vals; next; _ } ->
        List.iter value vals;
        frames next
    | Return_stack { dels; env; next; _ } ->
        List.iter visit dels;
        environment env;
        frames next
  in
  value control;
  environment env;
  frames cont;
  List.filter (fun l -> not (Hashtbl.mem seen l)) (cells store)

(* A machine-shaped run: a continuation that grows, shrinks, regrows
   with other frames, escapes to a captured chain or to a physically new
   copy of one, over a store that gains cells, loses young cells as
   I_stack deletes them and has old, recorded, register-only and new
   cells written; after every chunk, a collection through one world
   handle and one history (now and then a fresh history, as a new run
   would). Between some chunks another store whose locations start at 0
   is collected through its own history, as another machine on the same
   domain would. Every collection is checked against
   [whole_store_dead]. *)
let history_run seed =
  let sc =
    { rng = Random.State.make [| seed |]; st = Store.empty; old = []; young = [];
      removed = []; bases = [] }
  in
  let world_env = build_world sc in
  sc.st <- Store.start_run sc.st;
  let world = Gc.world world_env in
  let history = ref (Gc.history ()) in
  let cont = ref T.Halt and saved = ref [] in
  let ok = ref true in
  let check ?world ~control ~env ~cont ~history st =
    let dead = whole_store_dead ~control ~env ~cont st in
    let st', freed = Gc.collect ?world ~history ~value:control ~env ~cont st in
    if
      freed <> List.length dead
      || cells st' <> List.filter (fun l -> not (List.mem l dead)) (cells st)
    then ok := false;
    st'
  in
  let foreign () =
    (* Every location the script has handed out, all live. *)
    let n = Store.next_loc sc.st in
    let st, locs = Store.alloc_many Store.empty (List.init n (fun _ -> T.Nil)) in
    let st, root = Store.alloc st (T.Vector (Array.of_list locs)) in
    ignore
      (check ~control:(T.Vector [| root |]) ~env:Env.empty ~cont:T.Halt
         ~history:(Gc.history ()) st)
  in
  let present xs = List.filter (Store.mem sc.st) xs in
  for _ = 1 to 3 + draw sc 6 do
    for _ = 1 to 1 + draw sc 8 do
      match draw sc 12 with
      | 0 | 1 | 2 ->
          for _ = 1 to 1 + draw sc 4 do
            cont := some_frame sc !cont
          done
      | 3 | 4 ->
          for _ = 1 to 1 + draw sc 3 do
            cont := next_frame !cont
          done
      | 5 -> saved := !cont :: !saved
      | 6 -> if !saved <> [] then cont := pick sc !saved
      | 7 -> cont := copy_top !cont (1 + draw sc 3)
      | 8 -> sc.young <- sc.young @ alloc_value sc
      | 9 -> (
          match present (sc.old @ sc.young) with
          | [] -> ()
          | cells -> sc.st <- Store.set sc.st (pick sc cells) (some_value sc))
      | 10 -> (
          match present sc.young with
          | [] -> ()
          | cells ->
              let l = pick sc cells in
              sc.st <- Store.remove_all sc.st [ l ];
              sc.removed <- l :: sc.removed)
      | _ ->
          let some = List.init (1 + draw sc 3) (fun _ -> some_loc sc) in
          sc.bases <-
            Env.rebase (Env.add_list (bindings_of some) Env.empty) :: sc.bases
    done;
    (match draw sc 8 with
    | 0 -> history := Gc.history ()
    | 1 -> foreign ()
    | _ -> ());
    sc.st <-
      check ~world ~control:(some_value sc) ~env:(some_env sc) ~cont:!cont
        ~history:!history sc.st
  done;
  !ok

let prop_history_exact =
  QCheck.Test.make ~count:2000
    ~name:"collections through one history = whole-store ones"
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000_000))
    history_run

let test_world_met_below_watermark () =
  (* An old cell no base reaches breaks the world's invariant on
     purpose: a young-only collection keeps it, a full one frees it. The
     world base is met in the bottom frame; once that frame lies below
     the watermark it is not traced again, and the base must still count
     as met, or the world would be lost and this collection full. *)
  let s, kept = Store.alloc Store.empty (T.Sym "kept") in
  let s, _stray = Store.alloc s (T.Sym "stray") in
  let world_env = Env.rebase (Env.add "k" kept Env.empty) in
  let s = Store.start_run s in
  let world = Gc.world world_env and history = Gc.history () in
  let bottom = T.return_gc ~env:world_env ~next:T.Halt () in
  let s, young = Store.alloc s (T.Sym "young") in
  let collect cont s =
    Gc.collect ~world ~history ~value:(T.Vector [| young |]) ~env:Env.empty ~cont s
  in
  let s, freed1 = collect bottom s in
  check_int "young-only: the stray old cell stays" 0 freed1;
  let top = T.return_gc ~env:(Env.add "y" young Env.empty) ~next:bottom () in
  let s, freed2 = collect top s in
  check_int "still young-only" 0 freed2;
  let _, freed3 = collect top s in
  check_int "and again" 0 freed3;
  let _, full = Gc.collect ~value:(T.Vector [| young |]) ~env:Env.empty ~cont:top s in
  check_int "a full collection frees it" 1 full

(* The I_stack side condition scanned literally: the value, the frame's
   environment, the whole continuation below it and every retained
   cell. *)
let whole_scan ~candidates ~value ~env ~cont ~retained =
  let hit = Hashtbl.create 8 in
  let check l = if Hashtbl.mem candidates l then Hashtbl.replace hit l () in
  let check_env env = Env.iter_overlay (fun _ l -> check l) env in
  let rec check_value (v : T.value) =
    match v with
    | Pair (a, d) ->
        check a;
        check d
    | Vector locs -> Array.iter check locs
    | Closure (tag, _, env) ->
        check tag;
        check_env env
    | Escape (tag, k) ->
        check tag;
        check_cont k
    | _ -> ()
  and check_cont (k : T.cont) =
    match k with
    | Halt -> ()
    | Select { env; next; _ } | Assign { env; next; _ } | Return { env; next; _ } ->
        check_env env;
        check_cont next
    | Push { evaluated; env; next; _ } ->
        check_env env;
        List.iter (fun (_, v) -> check_value v) evaluated;
        check_cont next
    | Call { vals; next; _ } ->
        List.iter check_value vals;
        check_cont next
    | Return_stack { dels; env; next; _ } ->
        List.iter check dels;
        check_env env;
        check_cont next
  in
  check_value value;
  check_env env;
  check_cont cont;
  Store.iter (fun _ v -> check_value v) retained;
  hit

(* A call allocates its parameters after its frame's environment and
   continuation were built; before and after it, cells are allocated,
   written (old and young, so some older cells come to name a
   parameter) and removed. *)
let occurs_run seed =
  let sc =
    { rng = Random.State.make [| seed |]; st = Store.empty; old = []; young = [];
      removed = []; bases = [] }
  in
  ignore (build_world sc);
  sc.st <- Store.start_run sc.st;
  young_ops sc;
  let env = some_env sc and cont = some_cont sc 4 in
  let params = List.init (1 + draw sc 3) (fun _ -> alloc sc (some_value sc)) in
  sc.young <- sc.young @ params;
  young_ops sc;
  let value = some_value sc in
  let dels = List.filter (fun _ -> draw sc 3 > 0) params in
  let candidates = table_of dels in
  let retained = Store.remove_all sc.st dels in
  ( sorted_keys (Gc.occurs_in_retained ~candidates ~value ~retained),
    sorted_keys (whole_scan ~candidates ~value ~env ~cont ~retained) )

let prop_occurs_exact =
  QCheck.Test.make ~count:2000
    ~name:"I_stack occurs-check = whole-configuration scan"
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000_000))
    (fun seed ->
      let fast, whole = occurs_run seed in
      fast = whole)

let test_define_global_world_lost () =
  (* A world environment with an overlay starts lost: its young-only
     path would keep cells the base does not reach. *)
  let s, kept = Store.alloc Store.empty (T.Sym "kept") in
  let s, stray = Store.alloc s (T.Sym "stray") in
  let base = Env.rebase (Env.add "k" kept Env.empty) in
  let world_env = Env.add "stray" stray base in
  let s = Store.start_run s in
  let s, young = Store.alloc s (T.Sym "young") in
  let s', freed =
    Gc.collect ~world:(Gc.world world_env) ~value:(T.Vector [| young |]) ~env:base
      ~cont:T.Halt s
  in
  check_int "stray freed" 1 freed;
  Alcotest.(check (list int)) "kept" [ kept; young ] (cells s')

let () =
  Alcotest.run "gc"
    [
      ( "reachability",
        [
          Alcotest.test_case "unreachable collected" `Quick test_collect_unreachable;
          Alcotest.test_case "transitive" `Quick test_collect_transitive;
          Alcotest.test_case "closure env" `Quick test_collect_through_closure_env;
          Alcotest.test_case "continuation" `Quick test_collect_through_cont;
          Alcotest.test_case "escape" `Quick test_collect_through_escape;
          Alcotest.test_case "return_stack pins" `Quick test_return_stack_pins_deletions;
          Alcotest.test_case "rebased roots" `Quick test_rebased_env_roots;
        ] );
      ( "prelude-base",
        [
          Alcotest.test_case "no primitive shadowed" `Quick
            test_prelude_shadows_no_primitive;
          Alcotest.test_case "closures share one base" `Quick
            test_prelude_closures_share_base;
          Alcotest.test_case "initial world unchanged" `Quick
            test_initial_world_unchanged;
          Alcotest.test_case "initial world fully live" `Quick
            test_initial_world_fully_live;
        ] );
      ( "mark-table",
        [
          Alcotest.test_case "re-collect keeps everything" `Quick
            test_recollect_keeps_everything;
          Alcotest.test_case "cleared after a raise" `Quick
            test_marks_cleared_after_raise;
          Alcotest.test_case "grows past its size" `Quick test_table_grows;
          Alcotest.test_case "dangling dels" `Quick test_return_stack_dangling_dels;
          Alcotest.test_case "two domains agree" `Quick test_two_domains_agree;
        ] );
      ( "occurs-check",
        [
          Alcotest.test_case "via store" `Quick test_occurs_check;
          Alcotest.test_case "via env/value" `Quick test_occurs_via_env_and_value;
        ] );
      ( "old-generation",
        [
          QCheck_alcotest.to_alcotest prop_young_only_exact;
          Alcotest.test_case "world with an overlay starts lost" `Quick
            test_define_global_world_lost;
        ] );
      ( "history",
        [
          QCheck_alcotest.to_alcotest prop_history_exact;
          Alcotest.test_case "world base met below the watermark" `Quick
            test_world_met_below_watermark;
          QCheck_alcotest.to_alcotest prop_occurs_exact;
        ] );
      ( "integration",
        [
          Alcotest.test_case "schedule-independent" `Quick test_gc_does_not_change_answers;
          Alcotest.test_case "gc runs counted" `Quick test_gc_counts_reported;
        ] );
    ]
