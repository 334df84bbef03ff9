(* Sign-magnitude bignums over base-2^30 limbs, little-endian, behind a
   tagged fixnum fast path.

   Representation: [Fix n] carries a native int while the magnitude fits
   in [fix_bits] bits; [Big] carries sign-magnitude limbs. Invariants:
   [Big.mag] has no trailing (most-significant) zero limbs, is never
   empty (zero is always [Fix 0]), and [Big.sign] is [-1] or [1]. When
   fixnums are enabled (the default), every constructor canonicalizes
   through [make], so a [Big] never holds a fixnum-range magnitude and
   structural equality coincides with numeric equality.

   The fixnum toggle ([set_fixnums false]) exists so tests can force the
   all-limbs regime (test_machine "fixnums", test_vm "fixnums on and
   off", test_bignum's differential): every observer below (compare,
   to_string, bit_length, arithmetic) is representation-agnostic, so a
   [Fix] and a [Big] holding the same number are indistinguishable to
   callers — which is exactly the paper's point that the space *charge*
   (1 + log2 z, via [bit_length]) is a function of the magnitude, never
   of the representation.

   One schoolbook path per operation: quadratic multiplication,
   shift-subtract division (short division for a one-limb divisor) and
   10^9-chunk decimal conversion. The charge reads only the magnitude,
   so a faster algorithm could not move a peak, and measured runs keep
   their integers within a few limbs (the corpus's largest, fact(25),
   needs three). *)

let limb_bits = 30
let base = 1 lsl limb_bits
let limb_mask = base - 1

(* Fixnum range: |n| <= fix_max = 2^61 - 1. One bit of headroom below
   the 63-bit native int means the sum of any two fixnums is exact in
   native arithmetic — overflow detection is a range test on the result,
   never a pre-check. *)
let fix_bits = 61
let fix_max = (1 lsl fix_bits) - 1

type t = Fix of int | Big of { sign : int; mag : int array }

let fixnums = ref true
let set_fixnums b = fixnums := b
let fixnums_enabled () = !fixnums
let is_fixnum = function Fix _ -> true | Big _ -> false

let zero = Fix 0

(* Bit length of a non-negative native int, by binary descent. *)
let num_bits_int n =
  let n = ref n and b = ref 0 in
  if !n lsr 32 <> 0 then begin b := !b + 32; n := !n lsr 32 end;
  if !n lsr 16 <> 0 then begin b := !b + 16; n := !n lsr 16 end;
  if !n lsr 8 <> 0 then begin b := !b + 8; n := !n lsr 8 end;
  if !n lsr 4 <> 0 then begin b := !b + 4; n := !n lsr 4 end;
  if !n lsr 2 <> 0 then begin b := !b + 2; n := !n lsr 2 end;
  if !n lsr 1 <> 0 then begin b := !b + 1; n := !n lsr 1 end;
  !b + !n

(* ------------------------------------------------------------------ *)
(* Magnitude (unsigned little-endian limb array) primitives            *)

let normalize_mag mag =
  let n = Array.length mag in
  let rec top i = if i >= 0 && mag.(i) = 0 then top (i - 1) else i in
  let hi = top (n - 1) in
  if hi < 0 then [||] else if hi = n - 1 then mag else Array.sub mag 0 (hi + 1)

let cmp_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)

(* |a| + |b| *)
let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let lr = (if la > lb then la else lb) + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let s =
      (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry
    in
    r.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  r

(* |a| - |b|, requires |a| >= |b| *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  r

let bit_length_mag mag =
  let n = Array.length mag in
  if n = 0 then 0 else ((n - 1) * limb_bits) + num_bits_int mag.(n - 1)

let shift_left_mag mag k =
  if Array.length mag = 0 then mag
  else
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let n = Array.length mag in
    let r = Array.make (n + limbs + 1) 0 in
    for i = 0 to n - 1 do
      let v = mag.(i) lsl bits in
      r.(i + limbs) <- r.(i + limbs) lor (v land limb_mask);
      r.(i + limbs + 1) <- v lsr limb_bits
    done;
    r

(* ------------------------------------------------------------------ *)
(* Multiplication                                                      *)

(* Schoolbook. Limbs are < 2^30 so a limb product plus carries stays
   below 2^62, within native-int range. *)
let mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let acc = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- acc land limb_mask;
        carry := acc lsr limb_bits
      done;
      r.(i + lb) <- r.(i + lb) + !carry
    done;
    normalize_mag r
  end

(* ------------------------------------------------------------------ *)
(* Small-operand helpers (single-limb multiplier/divisor), used by
   decimal conversion and one-limb division.                           *)

let mul_small_mag mag m =
  let n = Array.length mag in
  let r = Array.make (n + 2) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let acc = (mag.(i) * m) + !carry in
    r.(i) <- acc land limb_mask;
    carry := acc lsr limb_bits
  done;
  let i = ref n in
  while !carry <> 0 do
    r.(!i) <- !carry land limb_mask;
    carry := !carry lsr limb_bits;
    incr i
  done;
  r

let add_small_mag mag m =
  let n = Array.length mag in
  let r = Array.make (n + 1) 0 in
  Array.blit mag 0 r 0 n;
  let carry = ref m in
  let i = ref 0 in
  while !carry <> 0 do
    let acc = r.(!i) + !carry in
    r.(!i) <- acc land limb_mask;
    carry := acc lsr limb_bits;
    incr i
  done;
  r

(* Divide magnitude by a small positive int; returns quotient mag and the
   int remainder. Limbs < 2^30 and divisors < 2^30 keep the intermediate
   [acc] below 2^60. *)
let divmod_small_mag mag m =
  let n = Array.length mag in
  let q = Array.make n 0 in
  let rem = ref 0 in
  for i = n - 1 downto 0 do
    let acc = (!rem lsl limb_bits) lor mag.(i) in
    q.(i) <- acc / m;
    rem := acc mod m
  done;
  (q, !rem)

(* ------------------------------------------------------------------ *)
(* Division                                                            *)

(* A one-limb divisor takes the short division above; any other divisor
   is shifted and subtracted one bit at a time from the top, which costs
   O(bits(a) * limbs(a)). *)
let divmod_mag a b =
  if cmp_mag a b < 0 then ([||], a)
  else if Array.length b = 1 then begin
    let q, r = divmod_small_mag a b.(0) in
    (normalize_mag q, if r = 0 then [||] else [| r |])
  end
  else begin
    let shift = bit_length_mag a - bit_length_mag b in
    let q = Array.make ((shift / limb_bits) + 1) 0 in
    let rem = ref a in
    for k = shift downto 0 do
      let d = normalize_mag (shift_left_mag b k) in
      if cmp_mag !rem d >= 0 then begin
        rem := normalize_mag (sub_mag !rem d);
        q.(k / limb_bits) <- q.(k / limb_bits) lor (1 lsl (k mod limb_bits))
      end
    done;
    (normalize_mag q, !rem)
  end

(* ------------------------------------------------------------------ *)
(* Canonicalization and conversions to/from native ints                *)

let fits_fix_mag mag =
  match Array.length mag with
  | 0 | 1 | 2 -> true
  | 3 -> (2 * limb_bits) + num_bits_int mag.(2) <= fix_bits
  | _ -> false

(* Caller guarantees the magnitude fits in a non-negative native int. *)
let int_of_mag mag =
  let v = ref 0 in
  for i = Array.length mag - 1 downto 0 do
    v := (!v lsl limb_bits) lor mag.(i)
  done;
  !v

(* |n| as a magnitude; peels limbs with negative arithmetic so min_int
   (which has no positive native counterpart) works too. *)
let mag_of_int_abs n =
  let rec limbs acc n =
    if n = 0 then acc else limbs ((-(n mod base)) :: acc) (n / base)
  in
  let l = limbs [] (if n < 0 then n else -n) in
  Array.of_list (List.rev l)

let make sign mag =
  let mag = normalize_mag mag in
  if Array.length mag = 0 then Fix 0
  else if !fixnums && fits_fix_mag mag then
    let v = int_of_mag mag in
    Fix (if sign < 0 then -v else v)
  else Big { sign = (if sign < 0 then -1 else 1); mag }

let of_int n =
  if n = 0 then Fix 0
  else if !fixnums && n >= -fix_max && n <= fix_max then Fix n
  else Big { sign = (if n < 0 then -1 else 1); mag = mag_of_int_abs n }

let one = of_int 1
let minus_one = of_int (-1)
let sign = function Fix n -> Stdlib.compare n 0 | Big b -> b.sign
let is_zero = function Fix 0 -> true | _ -> false
let mag_of = function Fix n -> mag_of_int_abs n | Big b -> b.mag

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)

let compare a b =
  match (a, b) with
  | Fix x, Fix y -> Stdlib.compare x y
  | _ ->
      let sa = sign a and sb = sign b in
      if sa <> sb then Stdlib.compare sa sb
      else if sa = 0 then 0
      else
        let c = cmp_mag (mag_of a) (mag_of b) in
        if sa >= 0 then c else -c

let equal a b = compare a b = 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

(* ------------------------------------------------------------------ *)
(* Arithmetic                                                          *)

let neg = function
  | Fix n -> Fix (-n)
  | Big b -> Big { b with sign = -b.sign }

let abs a = if sign a < 0 then neg a else a

let add_general a b =
  if is_zero a then b
  else if is_zero b then a
  else
    let sa = sign a and sb = sign b in
    let ma = mag_of a and mb = mag_of b in
    if sa = sb then make sa (add_mag ma mb)
    else
      let c = cmp_mag ma mb in
      if c = 0 then Fix 0
      else if c > 0 then make sa (sub_mag ma mb)
      else make sb (sub_mag mb ma)

let add a b =
  match (a, b) with
  | Fix x, Fix y ->
      (* |x|,|y| <= 2^61 - 1, so the native sum cannot wrap. *)
      let s = x + y in
      if s >= -fix_max && s <= fix_max then Fix s
      else Big { sign = (if s < 0 then -1 else 1); mag = mag_of_int_abs s }
  | _ -> add_general a b

let sub a b =
  match (a, b) with
  | Fix x, Fix y ->
      let s = x - y in
      if s >= -fix_max && s <= fix_max then Fix s
      else Big { sign = (if s < 0 then -1 else 1); mag = mag_of_int_abs s }
  | _ -> add_general a (neg b)

let succ a = add a one
let pred a = sub a one

let mul_general a b =
  if is_zero a || is_zero b then Fix 0
  else make (sign a * sign b) (mul_mag (mag_of a) (mag_of b))

let mul a b =
  match (a, b) with
  | Fix 0, _ | _, Fix 0 -> Fix 0
  | Fix x, Fix y
    when num_bits_int (Stdlib.abs x) + num_bits_int (Stdlib.abs y) <= 62 ->
      (* bits(x) + bits(y) <= 62 bounds |x*y| < 2^62, exact in native. *)
      let p = x * y in
      if p >= -fix_max && p <= fix_max then Fix p
      else Big { sign = (if p < 0 then -1 else 1); mag = mag_of_int_abs p }
  | _ -> mul_general a b

let bit_length = function
  | Fix n -> num_bits_int (Stdlib.abs n)
  | Big b -> bit_length_mag b.mag

let divmod a b =
  if is_zero b then raise Division_by_zero
  else if is_zero a then (Fix 0, Fix 0)
  else
    match (a, b) with
    | Fix x, Fix y ->
        (* truncated division; |q| <= |x| and |r| < |y| stay in range *)
        (Fix (x / y), Fix (x mod y))
    | _ ->
        let qm, rm = divmod_mag (mag_of a) (mag_of b) in
        (make (sign a * sign b) qm, make (sign a) rm)

let quotient a b = fst (divmod a b)
let remainder a b = snd (divmod a b)

let modulo a b =
  let r = remainder a b in
  if is_zero r || sign r = sign b then r else add r b

let is_even = function
  | Fix n -> n land 1 = 0
  | Big b -> b.mag.(0) land 1 = 0

let pow base_v n =
  if n < 0 then invalid_arg "Bignum.pow"
  else
    let rec go acc b n =
      if n = 0 then acc
      else if n = 1 then mul acc b
        (* stop here rather than square the largest intermediate of the
           call only to discard it *)
      else go (if n land 1 = 1 then mul acc b else acc) (mul b b) (n lsr 1)
    in
    go one base_v n

(* ------------------------------------------------------------------ *)
(* Decimal conversion                                                  *)

let decimal_chunk = 1_000_000_000 (* largest power of 10 below 2^30 *)
let chunk_digits = 9

(* pow10.(k) = 10^k as a native int, k <= 18 (10^18 < 2^62): an integer
   table, so parsing never depends on float rounding. *)
let pow10 =
  let a = Array.make 19 1 in
  for i = 1 to 18 do
    a.(i) <- a.(i - 1) * 10
  done;
  a

(* Repeated short division by 10^9 yields the chunks least-significant
   first; print them most-significant first. Quadratic in limbs. *)
let to_string t =
  match t with
  | Fix n -> string_of_int n
  | Big { sign; mag } ->
      let rec chunks mag acc =
        if Array.length mag = 0 then acc
        else
          let q, r = divmod_small_mag mag decimal_chunk in
          chunks (normalize_mag q) (r :: acc)
      in
      let buf = Buffer.create (4 * Array.length mag) in
      if sign < 0 then Buffer.add_char buf '-';
      List.iteri
        (fun i c ->
          Buffer.add_string buf
            (if i = 0 then string_of_int c else Printf.sprintf "%09d" c))
        (chunks mag []);
      Buffer.contents buf

let parse_sign s len =
  if len = 0 then invalid_arg "Bignum.of_string: empty string";
  let sign, start =
    match s.[0] with '-' -> (-1, 1) | '+' -> (1, 1) | _ -> (1, 0)
  in
  if start >= len then invalid_arg "Bignum.of_string: no digits";
  for i = start to len - 1 do
    let c = s.[i] in
    if c < '0' || c > '9' then
      invalid_arg ("Bignum.of_string: bad digit " ^ String.make 1 c)
  done;
  (sign, start)

let of_string s =
  let len = String.length s in
  let sign, start = parse_sign s len in
  if len - start <= 18 then begin
    (* <= 18 digits is < 10^18 < 2^62: exact in a native int. *)
    let v = ref 0 in
    for i = start to len - 1 do
      v := (!v * 10) + (Char.code s.[i] - Char.code '0')
    done;
    of_int (if sign < 0 then - !v else !v)
  end
  else begin
    (* fold 9-digit chunks left to right, scaling by the power table;
       quadratic in the digit count *)
    let mag = ref [||] in
    let i = ref start in
    while !i < len do
      let cl = Stdlib.min chunk_digits (len - !i) in
      let m = ref 0 in
      for j = !i to !i + cl - 1 do
        m := (!m * 10) + (Char.code s.[j] - Char.code '0')
      done;
      mag := add_small_mag (mul_small_mag !mag pow10.(cl)) !m;
      i := !i + cl
    done;
    make sign !mag
  end

(* ------------------------------------------------------------------ *)
(* Native-int extraction                                               *)

let to_int t =
  match t with
  | Fix n -> Some n
  | Big { sign; mag } ->
      let bl = bit_length_mag mag in
      if bl <= 62 then
        let v = int_of_mag mag in
        Some (if sign < 0 then -v else v)
      else if
        (* The one 63-bit magnitude that still fits: |min_int| = 2^62,
           i.e. limbs [|0; 0; 4|]. *)
        bl = 63 && sign < 0
        && Array.length mag = 3
        && mag.(0) = 0 && mag.(1) = 0 && mag.(2) = 4
      then Some Stdlib.min_int
      else None

let to_int_exn t =
  match to_int t with
  | Some n -> n
  | None -> failwith ("Bignum.to_int_exn: too large: " ^ to_string t)

let pp ppf t = Format.pp_print_string ppf (to_string t)
