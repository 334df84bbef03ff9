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
              (* a set built afresh, physically distinct from the kept one *)
              let fresh = A.Iset.of_list (A.Iset.elements (A.free_vars sub)) in
              if not (An.intern t fresh == s) then ok := false)
        e;
      (* recording is idempotent: a second pass over the same (physically
         identical) tree adds no nodes and interns no new sets *)
      let nodes = An.nodes t and sets = An.distinct_sets t in
      An.record t e;
      if An.nodes t <> nodes || An.distinct_sets t <> sets then ok := false;
      !ok)

(* A call's restriction sets from [Ast.free_vars]: each subexpression's
   set, then the left-to-right suffixes and the right-to-left prefixes
   still unevaluated when each frame is pushed. *)
let call_reference f args =
  let exprs = f :: args in
  let n = List.length exprs in
  let drop k = A.free_vars_of_list (List.filteri (fun i _ -> i >= k) exprs) in
  let take k = A.free_vars_of_list (List.filteri (fun i _ -> i < k) exprs) in
  ( List.map A.free_vars exprs,
    (drop 1, List.init (n - 1) (fun k -> drop (k + 2))),
    (take (n - 1), List.init (n - 1) (fun k -> take (n - 2 - k))) )

(* A Fisher-Yates shuffle of [0 .. n-1]. *)
let shuffled rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

(* Sets are computed on demand, so no lookup order may change one:
   every free-variable, branch, call and seeded-order lookup,
   interleaved in a random order, yields the reference sets, and every
   kept set comes back as the interned representative. A seeded lookup
   draws a random order of the call's subexpressions and holds
   [seeded_sets] over the indices after the first to the free variables
   of the subexpressions still unevaluated at each frame. *)
let prop_any_lookup_order =
  QCheck.Test.make ~name:"sets equal in any lookup order, interned" ~count:300
    QCheck.(pair arb_annot int)
    (fun (e, seed) ->
      let t = An.create () in
      An.record t e;
      let lookups = ref [] in
      iter_subterms
        (fun sub ->
          lookups :=
            (`Fv, sub) :: (`Branch, sub) :: (`Call, sub) :: (`Seeded, sub)
            :: !lookups)
        e;
      let lookups = Array.of_list !lookups in
      let rng = Random.State.make [| seed |] in
      let order = shuffled rng (Array.length lookups) in
      (* equal elements, and physically the interned representative *)
      let same got want =
        A.Iset.equal got want
        && An.intern t (A.Iset.of_list (A.Iset.elements want)) == got
      in
      let all_same gots wants =
        List.length gots = List.length wants && List.for_all2 same gots wants
      in
      List.for_all
        (fun i ->
          let kind, sub = lookups.(i) in
          match (kind, sub) with
          | `Fv, _ -> (
              match An.free_vars t sub with
              | Some s -> same s (A.free_vars sub)
              | None -> false)
          | `Branch, A.If (_, e1, e2) -> (
              match An.branch t sub with
              | Some s -> same s (A.Iset.union (A.free_vars e1) (A.free_vars e2))
              | None -> false)
          | `Call, A.Call (f, args) -> (
              match An.call t sub with
              | Some ci ->
                  let elems, (ltr_first, ltr_rest), (rtl_first, rtl_rest) =
                    call_reference f args
                  in
                  all_same (Array.to_list ci.An.elems) elems
                  && same ci.An.ltr_first ltr_first
                  && all_same ci.An.ltr_rest ltr_rest
                  && same ci.An.rtl_first rtl_first
                  && all_same ci.An.rtl_rest rtl_rest
              | None -> false)
          | `Seeded, A.Call (f, args) -> (
              match An.call t sub with
              | Some ci ->
                  let exprs = Array.of_list (f :: args) in
                  let rest = List.tl (shuffled rng (Array.length exprs)) in
                  let unevaluated is =
                    A.free_vars_of_list (List.map (Array.get exprs) is)
                  in
                  let rec wants = function
                    | [] -> []
                    | _ :: later -> unevaluated later :: wants later
                  in
                  let first, sets = An.seeded_sets ci rest in
                  A.Iset.equal first (unevaluated rest)
                  && List.length sets = List.length rest
                  && List.for_all2 A.Iset.equal sets (wants rest)
              | None -> false)
          | `Branch, _ -> An.branch t sub = None
          | (`Call | `Seeded), _ -> An.call t sub = None)
        order)

(* Site ids round-trip through [site_expr] after a second [record] that
   adds nodes to a table whose site lookup was already built. *)
let prop_site_round_trip =
  QCheck.Test.make ~name:"site_expr (site_id e) == e after two records"
    ~count:300 QCheck.(pair arb_annot arb_annot)
    (fun (e1, e2) ->
      let t = An.create () in
      An.record t e1;
      ignore (An.site_expr t 0);
      ignore (An.free_vars t e1);
      let both = A.Call (e2, [ e1 ]) in
      An.record t both;
      let ok = ref true in
      iter_subterms
        (fun sub ->
          match An.site_id t sub with
          | Some site -> (
              match An.site_expr t site with
              | Some e -> if not (e == sub) then ok := false
              | None -> ok := false)
          | None -> ok := false)
        both;
      !ok && An.site_expr t (An.nodes t) = None)

(* Only [I_free] and [I_sfs] read free-variable sets, so a machine of
   any other variant computes none, prelude included. *)
let test_sets_on_demand () =
  let entry = Option.get (Tailspace_corpus.Corpus.find "append") in
  let program = Tailspace_corpus.Corpus.program entry in
  let sets variant =
    let m = M.create_with (M.Config.make ~variant ()) in
    let r =
      M.exec_program m ~program ~input:(A.Quote (A.C_int (B.of_int 10)))
    in
    (match r.M.outcome with
    | M.Done _ -> ()
    | _ -> Alcotest.failf "%s: append did not answer" (M.variant_name variant));
    An.distinct_sets (Option.get (M.annotations m))
  in
  List.iter
    (fun variant ->
      Alcotest.(check int) (M.variant_name variant ^ ": no set computed") 0
        (sets variant))
    [ M.Tail; M.Gc; M.Stack; M.Evlis ];
  Alcotest.(check bool) "sfs computes sets" true (sets M.Sfs > 0)

(* The reader takes a NUL byte inside an identifier, so an interning
   key must not be the elements joined with NUL: {a\000b} and {a, b}
   are two sets, and merging them strips [a] and [b] from the second
   closure on Free and Sfs. *)
let nul_program =
  "(define (f a\000b a b) (list (lambda () a\000b) (lambda () (list a b)))) \
   (let ((p (f 1 2 3))) (list ((car p)) ((cadr p))))"

let test_intern_nul_identifier () =
  List.iter
    (fun (variant, peak) ->
      let r =
        M.exec_string (M.create_with (M.Config.make ~variant ())) nul_program
      in
      let name = M.variant_name variant in
      let answer =
        match r.outcome with
        | M.Done { answer; _ } -> answer
        | M.Stuck m -> "stuck: " ^ m
        | M.Aborted _ -> "aborted"
      in
      Alcotest.(check string) (name ^ ": answer") "(1 (2 3))" answer;
      Alcotest.(check int) (name ^ ": steps") 82 r.steps;
      Alcotest.(check int) (name ^ ": peak") peak (M.peak_space r))
    [ (M.Free, 576); (M.Sfs, 477) ]

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
          QCheck_alcotest.to_alcotest prop_any_lookup_order;
          QCheck_alcotest.to_alcotest prop_site_round_trip;
          Alcotest.test_case "sets on demand: none off free and sfs" `Quick
            test_sets_on_demand;
          Alcotest.test_case "intern keeps a NUL identifier apart" `Quick
            test_intern_nul_identifier;
        ] );
    ]
