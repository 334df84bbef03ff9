(* Unit and property tests for the bignum substrate. The property tests
   use native ints as the oracle on ranges where native arithmetic is
   exact, plus algebraic laws on genuinely large values. *)

module B = Tailspace_bignum.Bignum

let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let bs z = B.to_string z
let bi = B.of_int

(* --- units --- *)

let test_constants () =
  check_str "zero" "0" (bs B.zero);
  check_str "one" "1" (bs B.one);
  check_str "minus-one" "-1" (bs B.minus_one);
  check_bool "zero is zero" true (B.is_zero B.zero);
  check_bool "one not zero" false (B.is_zero B.one)

let test_of_int_roundtrip () =
  List.iter
    (fun n -> check_int (string_of_int n) n (B.to_int_exn (bi n)))
    [ 0; 1; -1; 42; -42; 1 lsl 29; (1 lsl 30) + 7; max_int; -max_int ]

let test_min_int () =
  check_str "min_int prints" (string_of_int min_int) (bs (bi min_int))

let test_of_string () =
  check_str "simple" "12345" (bs (B.of_string "12345"));
  check_str "negative" "-987" (bs (B.of_string "-987"));
  check_str "plus sign" "7" (bs (B.of_string "+7"));
  check_str "leading zeros" "42" (bs (B.of_string "00042"));
  check_str "huge"
    "123456789012345678901234567890123456789"
    (bs (B.of_string "123456789012345678901234567890123456789"))

let test_of_string_errors () =
  let bad s =
    Alcotest.check_raises s (Invalid_argument "Bignum.of_string: empty string")
      (fun () -> ignore (B.of_string s))
  in
  bad "";
  Alcotest.(check bool)
    "junk raises" true
    (match B.of_string "12x3" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool)
    "bare sign raises" true
    (match B.of_string "-" with exception Invalid_argument _ -> true | _ -> false)

let test_addition_carries () =
  (* crosses the 2^30 limb boundary *)
  let a = B.of_string "1073741823" in
  check_str "limb carry" "1073741824" (bs (B.add a B.one));
  check_str "big sum"
    "2000000000000000000000000000000"
    (bs (B.add (B.of_string "999999999999999999999999999999")
           (B.of_string "1000000000000000000000000000001")))

let test_subtraction_signs () =
  check_str "5-7" "-2" (bs (B.sub (bi 5) (bi 7)));
  check_str "-5-7" "-12" (bs (B.sub (bi (-5)) (bi 7)));
  check_str "borrow" "999999999"
    (bs (B.sub (B.of_string "1000000000000") (B.of_string "999000000001")))

let test_multiplication () =
  check_str "fact 20" "2432902008176640000"
    (bs (List.fold_left (fun acc i -> B.mul acc (bi i)) B.one
           (List.init 20 (fun i -> i + 1))));
  check_str "fact 30" "265252859812191058636308480000000"
    (bs (List.fold_left (fun acc i -> B.mul acc (bi i)) B.one
           (List.init 30 (fun i -> i + 1))));
  check_str "neg * pos" "-6" (bs (B.mul (bi (-2)) (bi 3)));
  check_str "neg * neg" "6" (bs (B.mul (bi (-2)) (bi (-3))));
  check_str "by zero" "0" (bs (B.mul (bi 12345) B.zero))

let test_pow () =
  check_str "2^100" "1267650600228229401496703205376" (bs (B.pow (bi 2) 100));
  check_str "x^0" "1" (bs (B.pow (bi 999) 0));
  check_str "(-2)^3" "-8" (bs (B.pow (bi (-2)) 3));
  Alcotest.check_raises "negative exponent" (Invalid_argument "Bignum.pow")
    (fun () -> ignore (B.pow (bi 2) (-1)))

let test_division () =
  let q, r = B.divmod (B.of_string "10000000000000000000000") (bi 7) in
  check_str "quot" "1428571428571428571428" (bs q);
  check_str "rem" "4" (bs r);
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (B.divmod B.one B.zero))

let test_modulo_signs () =
  (* Scheme: remainder has the dividend's sign, modulo the divisor's. *)
  check_str "rem -7 3" "-1" (bs (B.remainder (bi (-7)) (bi 3)));
  check_str "mod -7 3" "2" (bs (B.modulo (bi (-7)) (bi 3)));
  check_str "rem 7 -3" "1" (bs (B.remainder (bi 7) (bi (-3))));
  check_str "mod 7 -3" "-2" (bs (B.modulo (bi 7) (bi (-3))));
  check_str "mod -7 -3" "-1" (bs (B.modulo (bi (-7)) (bi (-3))))

let test_compare () =
  check_bool "lt" true (B.compare (bi 3) (bi 5) < 0);
  check_bool "gt mag" true
    (B.compare (B.of_string "100000000000000000000") (bi max_int) > 0);
  check_bool "neg lt pos" true (B.compare (bi (-1)) B.zero < 0);
  check_bool "neg order" true (B.compare (bi (-10)) (bi (-2)) < 0);
  check_str "min" "-5" (bs (B.min (bi (-5)) (bi 3)));
  check_str "max" "3" (bs (B.max (bi (-5)) (bi 3)))

let test_bit_length () =
  check_int "bits 0" 0 (B.bit_length B.zero);
  check_int "bits 1" 1 (B.bit_length B.one);
  check_int "bits 255" 8 (B.bit_length (bi 255));
  check_int "bits 256" 9 (B.bit_length (bi 256));
  check_int "bits -256" 9 (B.bit_length (bi (-256)));
  check_int "bits 2^100" 101 (B.bit_length (B.pow (bi 2) 100))

let test_to_int_overflow () =
  Alcotest.(check (option int)) "2^80 no fit" None (B.to_int (B.pow (bi 2) 80));
  Alcotest.(check (option int)) "42 fits" (Some 42) (B.to_int (bi 42))

let test_succ_pred () =
  check_str "succ -1" "0" (bs (B.succ B.minus_one));
  check_str "pred 0" "-1" (bs (B.pred B.zero));
  check_str "succ 2^30-1" "1073741824" (bs (B.succ (bi ((1 lsl 30) - 1))))

let test_equal_structural () =
  (* canonical representation: equal numbers are structurally equal *)
  check_bool "sub then add" true
    (B.equal (bi 100) (B.add (B.sub (B.of_string "1000000000000000000000") (B.of_string "999999999999999999900"))
                         B.zero))

let test_min_int_roundtrip () =
  (* |min_int| = 2^62 is the one 63-bit magnitude that fits a native
     int *)
  Alcotest.(check (option int))
    "of_int min_int |> to_int" (Some min_int)
    (B.to_int (bi min_int));
  check_int "to_int_exn min_int" min_int (B.to_int_exn (bi min_int));
  Alcotest.(check (option int))
    "min_int - 1 does not fit" None
    (B.to_int (B.pred (bi min_int)));
  Alcotest.(check (option int))
    "|min_int| positive does not fit" None
    (B.to_int (B.abs (bi min_int)))

let test_is_even () =
  List.iter
    (fun n ->
      check_bool (string_of_int n) (n mod 2 = 0) (B.is_even (bi n)))
    [ 0; 1; 2; -1; -2; 7; -7; max_int; min_int ];
  check_bool "big even" true
    (B.is_even (B.mul (B.pow (bi 10) 40) (bi 2)));
  check_bool "big odd" false
    (B.is_even (B.succ (B.mul (B.pow (bi 10) 40) (bi 2))))

let test_fixnum_representation () =
  check_bool "small is tagged" true (B.is_fixnum (bi 42));
  check_bool "2^100 is limbs" false (B.is_fixnum (B.pow (bi 2) 100));
  B.set_fixnums false;
  Fun.protect
    ~finally:(fun () -> B.set_fixnums true)
    (fun () ->
      let z = B.of_string "12345678901234567890" in
      B.set_fixnums true;
      let z' = B.of_string "12345678901234567890" in
      (* mixed representations of the same number are indistinguishable *)
      check_bool "equal across reprs" true (B.equal z z');
      check_str "print across reprs" (bs z) (bs z');
      check_int "bit_length across reprs" (B.bit_length z) (B.bit_length z'))

(* --- properties --- *)

let small_int = QCheck.int_range (-100000) 100000

let prop_matches_native =
  QCheck.Test.make ~name:"add/sub/mul match native ints" ~count:500
    (QCheck.pair small_int small_int) (fun (a, b) ->
      B.to_int_exn (B.add (bi a) (bi b)) = a + b
      && B.to_int_exn (B.sub (bi a) (bi b)) = a - b
      && B.to_int_exn (B.mul (bi a) (bi b)) = a * b)

let prop_divmod_native =
  QCheck.Test.make ~name:"divmod matches native quot/rem" ~count:500
    (QCheck.pair small_int small_int) (fun (a, b) ->
      QCheck.assume (b <> 0);
      B.to_int_exn (B.quotient (bi a) (bi b)) = a / b
      && B.to_int_exn (B.remainder (bi a) (bi b)) = a mod b)

let big =
  QCheck.map
    (fun (a, b, c) -> B.add (B.mul (bi a) (B.pow (bi 2) 80)) (B.mul (bi b) (bi c)))
    (QCheck.triple small_int small_int small_int)

(* canonical decimal strings of up to 360 digits, about 40 limbs *)
let huge =
  QCheck.make
    ~print:(fun s -> s)
    QCheck.Gen.(
      let* neg = bool in
      let* len = int_range 1 360 in
      let* first = int_range 1 9 in
      let* rest =
        string_size (return (len - 1)) ~gen:(map (fun d -> Char.chr (48 + d)) (int_bound 9))
      in
      return ((if neg then "-" else "") ^ string_of_int first ^ rest))

(* a [big] value (about four limbs) or a [huge] one, so the laws below
   reach the schoolbook multiply, shift-subtract division and chunk
   conversions at multi-limb sizes *)
let num = QCheck.choose [ big; QCheck.map B.of_string huge ]

let prop_ring_laws =
  QCheck.Test.make ~name:"commutativity/associativity/distributivity" ~count:200
    (QCheck.triple num num num) (fun (a, b, c) ->
      B.equal (B.add a b) (B.add b a)
      && B.equal (B.mul a b) (B.mul b a)
      && B.equal (B.add (B.add a b) c) (B.add a (B.add b c))
      && B.equal (B.mul (B.mul a b) c) (B.mul a (B.mul b c))
      && B.equal (B.mul a (B.add b c)) (B.add (B.mul a b) (B.mul a c)))

let prop_divmod_invariant =
  QCheck.Test.make ~name:"a = q*b + r with |r| < |b|, sign(r) = sign(a)"
    ~count:300 (QCheck.pair num num) (fun (a, b) ->
      QCheck.assume (not (B.is_zero b));
      let q, r = B.divmod a b in
      B.equal a (B.add (B.mul q b) r)
      && B.compare (B.abs r) (B.abs b) < 0
      && (B.is_zero r || B.sign r = B.sign a))

let prop_string_roundtrip =
  QCheck.Test.make ~name:"to_string/of_string roundtrip" ~count:300 num
    (fun z -> B.equal z (B.of_string (B.to_string z)))

(* the oracle is the input text, not another path of this module *)
let prop_text_roundtrip =
  QCheck.Test.make ~name:"to_string (of_string s) = s on canonical digit strings"
    ~count:300 huge (fun s -> String.equal (B.to_string (B.of_string s)) s)

let prop_compare_total_order =
  QCheck.Test.make ~name:"compare is antisymmetric and transitive-ish"
    ~count:300 (QCheck.triple big big big) (fun (a, b, c) ->
      compare (B.compare a b) (-(B.compare b a)) = 0
      && (not (B.compare a b <= 0 && B.compare b c <= 0) || B.compare a c <= 0))

let prop_bit_length_bound =
  QCheck.Test.make ~name:"2^(bits-1) <= |z| < 2^bits" ~count:200 big (fun z ->
      QCheck.assume (not (B.is_zero z));
      let bits = B.bit_length z in
      B.compare (B.abs z) (B.pow (bi 2) bits) < 0
      && B.compare (B.abs z) (B.pow (bi 2) (bits - 1)) >= 0)

(* --- differential properties --- *)

let prop_fixnum_invisible =
  QCheck.Test.make ~name:"fixnums on/off produce equal observables"
    ~count:200 (QCheck.pair huge huge) (fun (sa, sb) ->
      let run () =
        let a = B.of_string sa and b = B.of_string sb in
        let q, r =
          if B.is_zero b then (B.zero, B.zero) else B.divmod a b
        in
        (B.add a b, B.mul a b, q, r, B.to_string a, B.bit_length a)
      in
      let s1, m1, q1, r1, t1, l1 = run () in
      B.set_fixnums false;
      let s2, m2, q2, r2, t2, l2 =
        Fun.protect ~finally:(fun () -> B.set_fixnums true) run
      in
      B.equal s1 s2 && B.equal m1 m2 && B.equal q1 q2 && B.equal r1 r2
      && String.equal t1 t2 && l1 = l2)

let prop_is_even_matches_modulo =
  QCheck.Test.make ~name:"is_even = (modulo z 2 = 0), negatives included"
    ~count:300 huge (fun s ->
      let z = B.of_string s in
      B.is_even z = B.is_zero (B.modulo z (bi 2)))

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "bignum"
    [
      ( "units",
        [
          Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "of_int roundtrip" `Quick test_of_int_roundtrip;
          Alcotest.test_case "min_int" `Quick test_min_int;
          Alcotest.test_case "of_string" `Quick test_of_string;
          Alcotest.test_case "of_string errors" `Quick test_of_string_errors;
          Alcotest.test_case "addition carries" `Quick test_addition_carries;
          Alcotest.test_case "subtraction signs" `Quick test_subtraction_signs;
          Alcotest.test_case "multiplication" `Quick test_multiplication;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "division" `Quick test_division;
          Alcotest.test_case "modulo signs" `Quick test_modulo_signs;
          Alcotest.test_case "compare" `Quick test_compare;
          Alcotest.test_case "bit_length" `Quick test_bit_length;
          Alcotest.test_case "to_int overflow" `Quick test_to_int_overflow;
          Alcotest.test_case "succ/pred" `Quick test_succ_pred;
          Alcotest.test_case "canonical equality" `Quick test_equal_structural;
          Alcotest.test_case "min_int roundtrip" `Quick test_min_int_roundtrip;
          Alcotest.test_case "is_even" `Quick test_is_even;
          Alcotest.test_case "fixnum representation" `Quick
            test_fixnum_representation;
        ] );
      ( "properties",
        q
          [
            prop_matches_native;
            prop_divmod_native;
            prop_ring_laws;
            prop_divmod_invariant;
            prop_string_roundtrip;
            prop_text_roundtrip;
            prop_compare_total_order;
            prop_bit_length_bound;
          ] );
      ( "differential",
        q
          [
            prop_fixnum_invisible;
            prop_is_even_matches_modulo;
          ] );
    ]
