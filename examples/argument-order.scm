; The order in which a call's operands are evaluated, as the list of
; their values in evaluation order. Under --perm ltr it is (1 2 ... 10);
; under a seeded order it depends on the seed alone.
(define order '())
(define (note! x) (set! order (cons x order)) x)
(define (f a b c d e) 0)
(f (note! 1) (note! 2) (note! 3) (note! 4) (note! 5))
(f (note! 6) (note! 7) (note! 8) (note! 9) (note! 10))
(reverse order)
