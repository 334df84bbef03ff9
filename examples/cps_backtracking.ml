(* Continuation-passing style is the paper's motivating workload (§1):
   "Common idioms, notably continuation-passing style, would quickly run
   out of stack space if tail calls were to consume space."

   This example is a backtracking constraint solver written in pure CPS
   — success and failure continuations, no procedure ever returns. With
   an impossible target it explores the whole 2^n search tree. In pure
   CPS *every* call is a tail call, so:

   - under I_tail the live space is the pending-continuation chain,
     proportional to the search *depth* (n);
   - under I_gc every call still pushes a frame and nothing ever
     returns, so the space is proportional to the *total number of
     calls* — exponential in n.

       dune exec examples/cps_backtracking.exe *)

module Machine = Tailspace_core.Machine
module Runner = Tailspace_harness.Runner

(* subset-sum, CPS all the way down: (solve items target sk fk) calls
   sk with the chosen subset or fk with no arguments. *)
let solver =
  {|
(define (iota n) (if (zero? n) '() (cons n (iota (- n 1)))))
(define (sum lst) (fold-left + 0 lst))
(define (solve items target sk fk)
  (cond ((zero? target) (sk '()))
        ((null? items) (fk))
        (else
         (solve (cdr items)
                (- target (car items))
                (lambda (subset) (sk (cons (car items) subset)))
                (lambda ()
                  (solve (cdr items) target sk fk))))))
(lambda (n)
  (let ((items (iota n)))
    ;; impossible target: forces exhaustive exploration of all 2^n paths
    (solve items
           (+ 1 (sum items))
           (lambda (subset) subset)
           (lambda () 'impossible))))
|}

let () =
  let show variant =
    List.iter
      (fun (m : Runner.measurement) ->
        match m.Runner.status with
        | Runner.Answer a ->
            Printf.printf "  %-5s n=%-2d (%7d steps) -> %-10s S=%d words\n"
              (Machine.variant_name variant) m.Runner.n m.Runner.steps a
              m.Runner.space
        | Runner.Stuck msg -> Printf.printf "  stuck: %s\n" msg
        | Runner.Aborted r ->
            Printf.printf "  aborted: %s\n"
              (Tailspace_resilience.Resilience.abort_reason_message r))
      (Runner.sweep
         (Runner.point ~config:(Machine.Config.make ~variant ()) solver)
         [ 6; 8; 10; 12 ])
  in
  print_endline "exhaustive CPS subset-sum search over {1..n}, impossible target:";
  print_endline "";
  print_endline "properly tail recursive (I_tail) — space follows search DEPTH:";
  show Machine.Tail;
  print_newline ();
  print_endline "improperly tail recursive (I_gc) — space follows TOTAL CALLS:";
  show Machine.Gc;
  print_newline ();
  print_endline "each +2 in n quadruples the search tree; I_gc's space tracks";
  print_endline "it (nothing ever returns, so no frame is ever popped) while";
  print_endline "I_tail grows only with the O(n) continuation chain. This is";
  print_endline "why the Scheme standard makes proper tail recursion a";
  print_endline "conformance requirement rather than an optimization."
