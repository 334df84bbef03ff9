(* Static tail-call analysis (Definitions 1-2, Figure 2). *)

module TC = Tailspace_analysis.Tail_calls

let counts src = TC.analyze_source src

let check name src ~calls ~tail ~self =
  let c = counts src in
  Alcotest.(check int) (name ^ ": calls") calls c.TC.calls;
  Alcotest.(check int) (name ^ ": tail") tail c.TC.tail_calls;
  Alcotest.(check int) (name ^ ": self") self c.TC.self_tail_calls

(* Note: program assembly adds two bookkeeping calls per top-level
   define corpus (the letrec lambda application and one seq step), and
   one of them is in tail position; counts below include them. *)

let test_simple_loop () =
  (* loop body: (zero? n) non-tail, (- n 1) non-tail, (loop ...) tail+self;
     wrapper: letrec call + seq call (one counted tail) *)
  check "countdown" "(define (loop n) (if (zero? n) 0 (loop (- n 1)))) loop"
    ~calls:5 ~tail:1 ~self:1

let test_non_tail_recursion () =
  (* (fact (- n 1)) sits under *, so it is not a tail call *)
  check "fact" "(define (fact n) (if (zero? n) 1 (* n (fact (- n 1))))) fact"
    ~calls:6 ~tail:1 ~self:0

let test_find_leftmost () =
  (* the paper's §4 example: three source tail calls, one of them a
     self-tail call; the let and define encodings add calls *)
  let src =
    "(define (find-leftmost predicate? tree fail)
       (if (leaf? tree)
           (if (predicate? tree) tree (fail))
           (let ((continuation
                  (lambda () (find-leftmost predicate? (right-child tree) fail))))
             (find-leftmost predicate? (left-child tree) continuation))))
     find-leftmost"
  in
  let c = counts src in
  Alcotest.(check int) "self-tail = 1 (the last call)" 1 c.TC.self_tail_calls;
  Alcotest.(check bool) "tail calls > self-tail calls" true
    (c.TC.tail_calls > c.TC.self_tail_calls);
  (* the lambda-wrapped find-leftmost call is a tail call of the
     continuation closure, not of find-leftmost itself *)
  Alcotest.(check int) "call count" 10 c.TC.calls

let test_mutual_recursion_not_self () =
  let c =
    counts
      "(define (e? n) (if (zero? n) #t (o? (- n 1))))
       (define (o? n) (if (zero? n) #f (e? (- n 1))))
       e?"
  in
  Alcotest.(check int) "mutual tail calls" 2 c.TC.tail_calls;
  Alcotest.(check int) "no self-tail" 0 c.TC.self_tail_calls

let test_if_arms_are_tail () =
  let c =
    counts "(define (f x) (if (p x) (g x) (h x))) f"
  in
  (* (p x) non-tail; (g x) and (h x) tail *)
  Alcotest.(check int) "two tail arms" 2 c.TC.tail_calls

let test_operands_not_tail () =
  let c = counts "(define (f x) (g (h x) (k x))) f" in
  (* (g ...) tail; (h x), (k x) operands *)
  Alcotest.(check int) "one tail" 1 c.TC.tail_calls;
  Alcotest.(check int) "three source calls + 2 wrapper" 5 c.TC.calls

let test_let_transparent_for_self () =
  (* a self call under a let binding form is still a self-tail call *)
  let c =
    counts
      "(define (f n) (let ((m (- n 1))) (if (zero? m) 0 (f m)))) f"
  in
  Alcotest.(check int) "self through let" 1 c.TC.self_tail_calls

let test_lambda_breaks_self () =
  (* a tail call to f from inside an escaping lambda is not self for f *)
  let c = counts "(define (f n) (lambda () (f n))) f" in
  Alcotest.(check int) "not self" 0 c.TC.self_tail_calls;
  Alcotest.(check int) "but tail (in the inner lambda)" 1 c.TC.tail_calls

let test_known_calls () =
  let c = counts "(define (f x) x) (f ((lambda (y) y) 1))" in
  (* f known (defined), literal lambda known, letrec/seq wrappers known *)
  Alcotest.(check bool) "knowns found" true (c.TC.known_calls >= 3)

let test_set_rebinding_tracked () =
  let c =
    counts
      "(define (f n) (if (zero? n) 0 (f (- n 1))))
       f"
  in
  Alcotest.(check int) "define via set! recognized" 1 c.TC.self_tail_calls

let test_cond_expansion_tail_positions () =
  (* cond arms are tail positions *)
  let c =
    counts
      "(define (classify n)
         (cond ((zero? n) (zero-case))
               ((odd? n) (odd-case n))
               (else (classify (- n 2)))))
       classify"
  in
  Alcotest.(check int) "three tail arms" 3 c.TC.tail_calls;
  Alcotest.(check int) "else self-tail" 1 c.TC.self_tail_calls

let test_and_or_tail_shape () =
  (* (and a (f)) puts (f) in tail position; (or (f) b) does not *)
  let c1 = counts "(define (f x) (and (p x) (f (- x 1)))) f" in
  Alcotest.(check int) "and last is self-tail" 1 c1.TC.self_tail_calls;
  let c2 = counts "(define (f x) (or (f (- x 1)) (p x))) f" in
  Alcotest.(check int) "or head not tail" 0 c2.TC.self_tail_calls

let test_percent () =
  Alcotest.(check (float 0.001)) "50%" 50.0 (TC.percent 1 2);
  Alcotest.(check (float 0.001)) "0 of 0" 0.0 (TC.percent 0 0)

let test_totals_add () =
  let a = counts "(f x)" and b = counts "(g y)" in
  let t = TC.add a b in
  Alcotest.(check int) "sums calls" (a.TC.calls + b.TC.calls) t.TC.calls;
  Alcotest.(check int) "sums tails" (a.TC.tail_calls + b.TC.tail_calls) t.TC.tail_calls

let test_corpus_wide_claim () =
  (* Figure 2's point: tail calls are much more common than self-tail
     calls. Verified over our corpus as a whole. *)
  let total =
    List.fold_left
      (fun acc (e : Tailspace_corpus.Corpus.entry) ->
        TC.add acc (TC.analyze (Tailspace_corpus.Corpus.program e)))
      TC.zero Tailspace_corpus.Corpus.all
  in
  Alcotest.(check bool) "tail >= 3x self-tail" true
    (total.TC.tail_calls >= 3 * total.TC.self_tail_calls);
  Alcotest.(check bool) "tail calls are a sizable fraction" true
    (TC.percent total.TC.tail_calls total.TC.calls > 15.)

(* --- the static annotation pass (Annot) --- *)

module An = Tailspace_analysis.Annot
module A = Tailspace_ast.Ast
module B = Tailspace_bignum.Bignum
module M = Tailspace_core.Machine
module R = Tailspace_harness.Runner
module Pool = Tailspace_parallel.Pool
module S = Tailspace_engines.Secd
module E = Tailspace_expander.Expand

(* possibly-open expressions: free variables are the interesting case,
   so unlike test_engines' generator this one deliberately produces
   unbound identifiers alongside lambda-bound ones *)
let gen_annot_expr =
  let open QCheck.Gen in
  let const =
    map (fun n -> A.Quote (A.C_int (B.of_int n))) (int_range (-9) 9)
  in
  let free = map (fun v -> A.Var v) (oneofl [ "a"; "b"; "c"; "d" ]) in
  let bound env =
    if env = [] then free
    else
      map
        (fun i -> A.Var (List.nth env (i mod List.length env)))
        (int_range 0 50)
  in
  let fresh = map (fun i -> Printf.sprintf "x%d" i) (int_range 0 6) in
  let rec go env depth =
    if depth = 0 then oneof [ const; free; bound env ]
    else
      let sub = go env (depth - 1) in
      frequency
        [
          (2, const);
          (2, free);
          (2, bound env);
          ( 3,
            map2
              (fun f args -> A.Call (f, args))
              sub
              (list_size (int_range 0 3) sub) );
          (2, map3 (fun a b c -> A.If (a, b, c)) sub sub sub);
          (1, fresh >>= fun x -> map (fun e -> A.Set (x, e)) sub);
          ( 3,
            fresh >>= fun x ->
            map
              (fun body -> A.Lambda { params = [ x ]; rest = None; body })
              (go (x :: env) (depth - 1)) );
        ]
  in
  go [] 5

let arb_annot = QCheck.make ~print:A.to_string gen_annot_expr

let iter_subterms f e =
  let rec go e =
    f e;
    match e with
    | A.Quote _ | A.Var _ -> ()
    | A.Lambda { body; _ } -> go body
    | A.If (e0, e1, e2) ->
        go e0;
        go e1;
        go e2
    | A.Set (_, e0) -> go e0
    | A.Call (e0, es) ->
        go e0;
        List.iter go es
  in
  go e

(* Every recorded subterm's precomputed set has exactly the elements the
   reference computation assigns it. *)
let prop_fv_agrees =
  QCheck.Test.make ~name:"Annot.free_vars = Ast.free_vars on every subterm"
    ~count:300 arb_annot (fun e ->
      let t = An.create () in
      An.record t e;
      let ok = ref true in
      iter_subterms
        (fun sub ->
          match An.free_vars t sub with
          | None -> ok := false
          | Some s -> if not (A.Iset.equal s (A.free_vars sub)) then ok := false)
        e;
      !ok)

(* Hash-consing: interning a freshly built structurally-equal set must
   return the physically identical representative the pass stored, so
   the machines' set comparisons are O(1) pointer tests. *)
let prop_interned_shared =
  QCheck.Test.make ~name:"interned free-variable sets physically shared"
    ~count:300 arb_annot (fun e ->
      let t = An.create () in
      An.record t e;
      let ok = ref true in
      iter_subterms
        (fun sub ->
          match An.free_vars t sub with
          | None -> ok := false
          | Some s ->
              (* rebuild the set from scratch to defeat Ast's memoizer *)
              let fresh = A.Iset.of_list (A.Iset.elements (A.free_vars sub)) in
              if not (An.intern t fresh == s) then ok := false)
        e;
      (* recording is idempotent: a second pass over the same (physically
         identical) tree adds no nodes and interns no new sets *)
      let nodes = An.nodes t and sets = An.distinct_sets t in
      An.record t e;
      if An.nodes t <> nodes || An.distinct_sets t <> sets then ok := false;
      !ok)

(* The SECD compiler must emit the same instruction stream whether tail
   positions come from the table or the structural recursion. *)
let prop_secd_compile_equal =
  QCheck.Test.make ~name:"SECD compile unchanged by annotations" ~count:300
    arb_annot (fun e ->
      let t = An.create () in
      An.record t e;
      S.compile e = S.compile ~annot:t e)

(* The end-to-end invariance the oracle enforces, at the sweep level:
   annotated and unannotated sweeps yield equal measurement lists,
   serially and through a 4-domain pool. *)
let test_annot_sweep_identical () =
  let program =
    E.program_of_string
      "(define (count n) (if (zero? n) 0 (count (- n 1)))) count"
  in
  let ns = [ 3; 9; 27 ] in
  List.iter
    (fun variant ->
      let sweep ?pool annotate =
        R.sweep ?pool
          ~config:(M.Config.make ~variant ~annotate ())
          ~program ~ns ()
      in
      let name = M.variant_name variant in
      let baseline = sweep true in
      let same what ms =
        Alcotest.(check bool) (name ^ ": " ^ what) true (ms = baseline)
      in
      same "jobs=1 annotated = unannotated" (sweep false);
      Pool.with_pool ~jobs:4 (fun pool ->
          same "jobs=4 annotated" (sweep ?pool true);
          same "jobs=4 unannotated" (sweep ?pool false)))
    [ M.Sfs; M.Free; M.Tail ]

let () =
  Alcotest.run "analysis"
    [
      ( "definitions",
        [
          Alcotest.test_case "simple loop" `Quick test_simple_loop;
          Alcotest.test_case "non-tail recursion" `Quick test_non_tail_recursion;
          Alcotest.test_case "find-leftmost (paper §4)" `Quick test_find_leftmost;
          Alcotest.test_case "mutual recursion" `Quick test_mutual_recursion_not_self;
          Alcotest.test_case "if arms" `Quick test_if_arms_are_tail;
          Alcotest.test_case "operands" `Quick test_operands_not_tail;
          Alcotest.test_case "let transparent" `Quick test_let_transparent_for_self;
          Alcotest.test_case "lambda breaks self" `Quick test_lambda_breaks_self;
          Alcotest.test_case "known calls" `Quick test_known_calls;
          Alcotest.test_case "set! tracking" `Quick test_set_rebinding_tracked;
          Alcotest.test_case "cond arms" `Quick test_cond_expansion_tail_positions;
          Alcotest.test_case "and/or shape" `Quick test_and_or_tail_shape;
        ] );
      ( "aggregation",
        [
          Alcotest.test_case "percent" `Quick test_percent;
          Alcotest.test_case "totals" `Quick test_totals_add;
          Alcotest.test_case "figure 2 shape over corpus" `Quick test_corpus_wide_claim;
        ] );
      ( "annotation-pass",
        [
          QCheck_alcotest.to_alcotest prop_fv_agrees;
          QCheck_alcotest.to_alcotest prop_interned_shared;
          QCheck_alcotest.to_alcotest prop_secd_compile_equal;
          Alcotest.test_case "sweeps byte-identical, jobs 1 and 4" `Quick
            test_annot_sweep_identical;
        ] );
    ]
