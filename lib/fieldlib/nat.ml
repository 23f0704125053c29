type t = int array
(* Little-endian, base 2^31, canonical: highest limb non-zero; zero = [||].
   Invariant arithmetic bound: limb * limb + limb + limb <= 2^62 - 1, so all
   intermediate values fit in a 63-bit OCaml int. *)

let base_bits = 31
let base = 1 lsl base_bits
let mask = base - 1

(* Schoolbook/Karatsuba crossover in limbs. Retuned by the threshold sweep
   in the ablation bench (EXPERIMENTS.md): on this representation the
   crossover sits well above the old hard-coded 24 because row-wise
   schoolbook stays in one flat array while Karatsuba pays three
   allocations per split. 48 limbs (~1500 bits) won or tied at every
   measured width: field elements (5 limbs) and 512/1024-bit group
   arithmetic stay schoolbook; 2048-bit operands split once. *)
let karatsuba_threshold = ref 48

let set_karatsuba_threshold n =
  if n < 2 then invalid_arg "Nat.set_karatsuba_threshold";
  karatsuba_threshold := n

let get_karatsuba_threshold () = !karatsuba_threshold

let zero : t = [||]

let norm (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do decr n done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int n =
  if n < 0 then invalid_arg "Nat.of_int: negative";
  if n = 0 then zero
  else if n < base then [| n |]
  else if n < base * base then [| n land mask; n lsr base_bits |]
  else [| n land mask; (n lsr base_bits) land mask; n lsr (2 * base_bits) |]

let one = of_int 1
let two = of_int 2
let is_zero a = Array.length a = 0
let is_one a = Array.length a = 1 && a.(0) = 1
let num_limbs = Array.length

let to_int_opt a =
  match Array.length a with
  | 0 -> Some 0
  | 1 -> Some a.(0)
  | 2 -> Some ((a.(1) lsl base_bits) lor a.(0))
  | 3 when a.(2) < 1 lsl (62 - 2 * base_bits) ->
    Some ((a.(2) lsl (2 * base_bits)) lor (a.(1) lsl base_bits) lor a.(0))
  | _ -> None

let to_int a =
  match to_int_opt a with
  | Some n -> n
  | None -> failwith "Nat.to_int: overflow"

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    (* a loop, not a local [let rec]: the closure would cost 5 words per
       same-length comparison, i.e. per field add/sub/reduce *)
    let i = ref (la - 1) in
    while !i >= 0 && a.(!i) = b.(!i) do decr i done;
    if !i < 0 then 0 else Stdlib.compare a.(!i) b.(!i)
  end

let equal a b = compare a b = 0

(* Bit length of 0 <= v < 2^31, by halving. *)
let bit_length v =
  let n = ref 0 and v = ref v in
  if !v >= 1 lsl 16 then begin n := 16; v := !v lsr 16 end;
  if !v >= 1 lsl 8 then begin n := !n + 8; v := !v lsr 8 end;
  if !v >= 1 lsl 4 then begin n := !n + 4; v := !v lsr 4 end;
  if !v >= 1 lsl 2 then begin n := !n + 2; v := !v lsr 2 end;
  if !v >= 2 then begin n := !n + 1; v := !v lsr 1 end;
  !n + !v

let num_bits a =
  let l = Array.length a in
  if l = 0 then 0 else ((l - 1) * base_bits) + bit_length a.(l - 1)

let testbit a i =
  let limb = i / base_bits and off = i mod base_bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

let limb (a : t) i = if i < Array.length a then a.(i) else 0

(* Bits [lo, lo+w) of [a] as an int, w <= 31: at most two limbs. *)
let bits a ~lo ~w =
  let limb_i = lo / base_bits and off = lo mod base_bits in
  let v = limb a limb_i lsr off in
  let v = if off + w > base_bits then v lor (limb a (limb_i + 1) lsl (base_bits - off)) else v in
  v land ((1 lsl w) - 1)

let is_even a = Array.length a = 0 || a.(0) land 1 = 0

let add a b =
  let la = Array.length a and lb = Array.length b in
  let lr = 1 + max la lb in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 2 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land mask;
    carry := s lsr base_bits
  done;
  r.(lr - 1) <- !carry;
  norm r

let add_int a n = add a (of_int n)

let sub a b =
  let la = Array.length a and lb = Array.length b in
  if la < lb then invalid_arg "Nat.sub: negative result";
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let s = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if s < 0 then begin
      r.(i) <- s + base;
      borrow := 1
    end else begin
      r.(i) <- s;
      borrow := 0
    end
  done;
  if !borrow <> 0 then invalid_arg "Nat.sub: negative result";
  norm r

let sub_int a n = sub a (of_int n)

let mul_int a m =
  if m < 0 || m >= base then invalid_arg "Nat.mul_int: multiplier out of range";
  if m = 0 || is_zero a then zero
  else begin
    let la = Array.length a in
    let r = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let p = (a.(i) * m) + !carry in
      r.(i) <- p land mask;
      carry := p lsr base_bits
    done;
    r.(la) <- !carry;
    norm r
  end

let mul_school a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let p = r.(i + j) + (ai * b.(j)) + !carry in
          r.(i + j) <- p land mask;
          carry := p lsr base_bits
        done;
        (* Propagate the final carry; it cannot overflow past the result. *)
        let k = ref (i + lb) in
        while !carry <> 0 do
          let s = r.(!k) + !carry in
          r.(!k) <- s land mask;
          carry := s lsr base_bits;
          incr k
        done
      end
    done;
    norm r
  end

(* Karatsuba split at [k] limbs: a = a1*B^k + a0. *)
let split a k =
  let la = Array.length a in
  if la <= k then (zero, a)
  else (norm (Array.sub a k (la - k)), norm (Array.sub a 0 k))

let shift_left_limbs a k =
  if is_zero a then zero
  else begin
    let la = Array.length a in
    let r = Array.make (la + k) 0 in
    Array.blit a 0 r k la;
    r
  end

let rec mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else if la < !karatsuba_threshold || lb < !karatsuba_threshold then mul_school a b
  else begin
    let k = (max la lb + 1) / 2 in
    let a1, a0 = split a k and b1, b0 = split b k in
    let z2 = mul a1 b1 in
    let z0 = mul a0 b0 in
    let z1 = sub (mul (add a1 a0) (add b1 b0)) (add z2 z0) in
    add (add (shift_left_limbs z2 (2 * k)) (shift_left_limbs z1 k)) z0
  end

let sqr a = mul a a

let shift_left a n =
  if is_zero a || n = 0 then a
  else begin
    let limbs = n / base_bits and bits = n mod base_bits in
    let la = Array.length a in
    let r = Array.make (la + limbs + 1) 0 in
    if bits = 0 then Array.blit a 0 r limbs la
    else begin
      let carry = ref 0 in
      for i = 0 to la - 1 do
        let v = (a.(i) lsl bits) lor !carry in
        r.(i + limbs) <- v land mask;
        carry := v lsr base_bits
      done;
      r.(la + limbs) <- !carry
    end;
    norm r
  end

let shift_right a n =
  if is_zero a || n = 0 then a
  else begin
    let limbs = n / base_bits and bits = n mod base_bits in
    let la = Array.length a in
    if limbs >= la then zero
    else begin
      let lr = la - limbs in
      let r = Array.make lr 0 in
      if bits = 0 then Array.blit a limbs r 0 lr
      else begin
        for i = 0 to lr - 1 do
          let lo = a.(i + limbs) lsr bits in
          let hi = if i + limbs + 1 < la then (a.(i + limbs + 1) lsl (base_bits - bits)) land mask else 0 in
          r.(i) <- lo lor hi
        done
      end;
      norm r
    end
  end

let shift_right_limbs a k =
  let la = Array.length a in
  if k >= la then zero else norm (Array.sub a k (la - k))

let truncate_limbs a k =
  let la = Array.length a in
  if la <= k then a else norm (Array.sub a 0 k)

let divmod_int a d =
  if d <= 0 || d >= base then invalid_arg "Nat.divmod_int: divisor out of range";
  let la = Array.length a in
  if la = 0 then (zero, 0)
  else begin
    let q = Array.make la 0 in
    let rem = ref 0 in
    for i = la - 1 downto 0 do
      let cur = (!rem lsl base_bits) lor a.(i) in
      q.(i) <- cur / d;
      rem := cur mod d
    done;
    (norm q, !rem)
  end

(* Knuth TAOCP vol. 2, 4.3.1, Algorithm D, in base 2^31. *)
let divmod_knuth u v =
  let n = Array.length v in
  let m = Array.length u - n in
  (* Normalize: shift so the top limb of v has its bit 30 set. *)
  let s =
    let top = v.(n - 1) in
    let rec go b c = if b land (1 lsl (base_bits - 1 - c)) <> 0 then c else go b (c + 1) in
    go top 0
  in
  let vn =
    let shifted = shift_left v s in
    (* Shifting by s < 31 cannot grow v beyond n limbs by construction. *)
    assert (Array.length shifted = n);
    shifted
  in
  let un = Array.make (m + n + 1) 0 in
  (let shifted = shift_left u s in
   Array.blit shifted 0 un 0 (Array.length shifted));
  let q = Array.make (m + 1) 0 in
  let vtop = vn.(n - 1) in
  let vsecond = if n >= 2 then vn.(n - 2) else 0 in
  for j = m downto 0 do
    let num = (un.(j + n) lsl base_bits) lor un.(j + n - 1) in
    let qhat = ref (num / vtop) and rhat = ref (num mod vtop) in
    let adjusting = ref true in
    while !adjusting do
      if !qhat >= base || !qhat * vsecond > (!rhat lsl base_bits) lor un.(j + n - 2) then begin
        decr qhat;
        rhat := !rhat + vtop;
        if !rhat >= base then adjusting := false
      end else adjusting := false
    done;
    (* Multiply-subtract. *)
    let borrow = ref 0 and carry = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * vn.(i)) + !carry in
      carry := p lsr base_bits;
      let d = un.(j + i) - (p land mask) - !borrow in
      if d < 0 then begin
        un.(j + i) <- d + base;
        borrow := 1
      end else begin
        un.(j + i) <- d;
        borrow := 0
      end
    done;
    let d = un.(j + n) - !carry - !borrow in
    if d < 0 then begin
      (* qhat was one too large: add back. *)
      un.(j + n) <- d + base;
      decr qhat;
      let c = ref 0 in
      for i = 0 to n - 1 do
        let s = un.(j + i) + vn.(i) + !c in
        un.(j + i) <- s land mask;
        c := s lsr base_bits
      done;
      un.(j + n) <- (un.(j + n) + !c) land mask
    end else un.(j + n) <- d;
    q.(j) <- !qhat
  done;
  let r = shift_right (norm (Array.sub un 0 n)) s in
  (norm q, r)

let divmod a b =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then begin
    let q, r = divmod_int a b.(0) in
    (q, of_int r)
  end else divmod_knuth a b

(* Special case needed when n >= 2 but un has index j+n-2 = -1? Impossible:
   j >= 0 and n >= 2 so j+n-2 >= 0. *)

let pow_int b e =
  if e < 0 then invalid_arg "Nat.pow_int: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else begin
      let acc = if e land 1 = 1 then mul acc b else acc in
      go acc (sqr b) (e lsr 1)
    end
  in
  go one b e

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "Nat.of_hex: bad digit"

let of_hex s =
  let s = if String.length s >= 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X') then String.sub s 2 (String.length s - 2) else s in
  let acc = ref zero in
  String.iter
    (fun c -> if c <> '_' then acc := add_int (shift_left !acc 4) (hex_digit c))
    s;
  !acc

let to_hex a =
  if is_zero a then "0"
  else begin
    let nibbles = (num_bits a + 3) / 4 in
    let buf = Buffer.create nibbles in
    for i = nibbles - 1 downto 0 do
      let limb = (i * 4) / base_bits and off = (i * 4) mod base_bits in
      let v =
        let lo = a.(limb) lsr off in
        let hi = if off > base_bits - 4 && limb + 1 < Array.length a then a.(limb + 1) lsl (base_bits - off) else 0 in
        (lo lor hi) land 0xf
      in
      Buffer.add_char buf "0123456789abcdef".[v]
    done;
    Buffer.contents buf
  end

let of_decimal s =
  let acc = ref zero in
  String.iter
    (fun c ->
      if c <> '_' then begin
        if c < '0' || c > '9' then invalid_arg "Nat.of_decimal: bad digit";
        acc := add_int (mul_int !acc 10) (Char.code c - Char.code '0')
      end)
    s;
  !acc

let to_decimal a =
  if is_zero a then "0"
  else begin
    let chunks = ref [] in
    let cur = ref a in
    while not (is_zero !cur) do
      let q, r = divmod_int !cur 1_000_000_000 in
      chunks := r :: !chunks;
      cur := q
    done;
    match !chunks with
    | [] -> assert false
    | first :: rest ->
      let buf = Buffer.create 32 in
      Buffer.add_string buf (string_of_int first);
      List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest;
      Buffer.contents buf
  end

(* ---- Byte codecs --------------------------------------------------
   Bytes are packed straight into base-2^31 limbs through a bit
   accumulator: each byte is read or written once and the only
   allocation is the value returned. *)

(* Little-endian decode of the low [bits] bits of [b.(off .. off+ceil(bits/8)-1)]
   into [dst.(0 .. width-1)] (zero-padded); bits past [bits] in the top
   byte are dropped. The value must fit [width] limbs. *)
let load_bits_le ~width (dst : int array) b off ~bits =
  let nbytes = (bits + 7) / 8 in
  let top_mask = (1 lsl (bits - (8 * (nbytes - 1)))) - 1 in
  let acc = ref 0 and accbits = ref 0 and li = ref 0 in
  for i = 0 to nbytes - 1 do
    let byte = Char.code (Bytes.get b (off + i)) in
    let byte = if i = nbytes - 1 then byte land top_mask else byte in
    acc := !acc lor (byte lsl !accbits);
    accbits := !accbits + 8;
    if !accbits >= base_bits then begin
      dst.(!li) <- !acc land mask;
      incr li;
      acc := !acc lsr base_bits;
      accbits := !accbits - base_bits
    end
  done;
  if !acc <> 0 then begin
    dst.(!li) <- !acc;
    incr li
  end;
  Array.fill dst !li (width - !li) 0

let of_bytes_sub b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg "Nat.of_bytes_sub";
  let n = ref len in
  while !n > 0 && Bytes.get b (off + !n - 1) = '\000' do
    decr n
  done;
  if !n = 0 then zero
  else begin
    let bits = (8 * (!n - 1)) + bit_length (Char.code (Bytes.get b (off + !n - 1))) in
    let width = (bits + base_bits - 1) / base_bits in
    let r = Array.make width 0 in
    load_bits_le ~width r b off ~bits;
    r
  end

let of_bytes_le b = of_bytes_sub b 0 (Bytes.length b)

(* Byte [i] (little-endian) of [a]: bits [8i, 8i+8) span at most two
   limbs. *)
let byte_at a i =
  let la = Array.length a in
  let limb = (8 * i) / base_bits and off = (8 * i) mod base_bits in
  if limb >= la then 0
  else begin
    let lo = a.(limb) lsr off in
    let hi = if off > base_bits - 8 && limb + 1 < la then a.(limb + 1) lsl (base_bits - off) else 0 in
    (lo lor hi) land 0xff
  end

let check_fits a len = if num_bits a > len * 8 then invalid_arg "Nat.to_bytes_le: does not fit"

let to_bytes_le a len =
  check_fits a len;
  Bytes.init len (fun i -> Char.unsafe_chr (byte_at a i))

let add_bytes_le buf a len =
  check_fits a len;
  (* two bytes per call: Buffer's uint16 writer takes an unboxed int *)
  for i = 0 to (len / 2) - 1 do
    Buffer.add_uint16_le buf (bits a ~lo:(16 * i) ~w:16)
  done;
  if len land 1 = 1 then Buffer.add_char buf (Char.unsafe_chr (byte_at a (len - 1)))

(* ---- Fixed-width in-place kernels -------------------------------------
   These operate on plain [int array] limb buffers of a caller-chosen fixed
   width (non-canonical: high zero limbs are fine). They are the scalar
   mirror of the packed [Limb] kernels and exist so hot loops can reuse
   buffers instead of allocating one array per intermediate. *)

let to_limbs ~width (a : t) : int array =
  let la = Array.length a in
  if la > width then invalid_arg "Nat.to_limbs: width too small";
  let r = Array.make width 0 in
  Array.blit a 0 r 0 la;
  r

let of_limbs (l : int array) : t =
  let n = ref (Array.length l) in
  while !n > 0 && l.(!n - 1) = 0 do decr n done;
  Array.sub l 0 !n

(* Compare a [width]-limb buffer with a natural. *)
let compare_limbs ~width (l : int array) (b : t) =
  let lb = Array.length b in
  let r = ref 0 and i = ref (max width lb - 1) in
  while !r = 0 && !i >= 0 do
    let x = if !i < width then l.(!i) else 0 and y = if !i < lb then b.(!i) else 0 in
    if x < y then r := -1 else if x > y then r := 1;
    decr i
  done;
  !r

(* Packed slices: the [Limb.a] Bigarray layout, encoded here so the
   boundary codecs touch the representation directly. *)
type slice = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

external slice_get : slice -> int -> int = "%caml_ba_ref_1"
external slice_set : slice -> int -> int -> unit = "%caml_ba_set_1"

let to_slice (a : t) (dst : slice) off w =
  let la = Array.length a in
  if la > w then invalid_arg "Nat.to_slice: width too small";
  for i = 0 to w - 1 do
    slice_set dst (off + i) (if i < la then a.(i) else 0)
  done

let of_slice (src : slice) off w : t =
  let n = ref w in
  while !n > 0 && slice_get src (off + !n - 1) = 0 do decr n done;
  let r = Array.make !n 0 in
  for i = 0 to !n - 1 do
    r.(i) <- slice_get src (off + i)
  done;
  r

(* Bytes straight into a slice through the same bit accumulator as
   [load_bits_le]. Limbs past [w] must come out zero: a set bit there
   means the value does not fit, reported as [false]. *)
let slice_of_bytes b off len (dst : slice) doff w =
  let acc = ref 0 and accbits = ref 0 and li = ref 0 and fits = ref true in
  for i = 0 to len - 1 do
    acc := !acc lor (Char.code (Bytes.unsafe_get b (off + i)) lsl !accbits);
    accbits := !accbits + 8;
    if !accbits >= base_bits then begin
      let v = !acc land mask in
      if !li < w then slice_set dst (doff + !li) v else if v <> 0 then fits := false;
      incr li;
      acc := !acc lsr base_bits;
      accbits := !accbits - base_bits
    end
  done;
  if !acc <> 0 then begin
    if !li < w then slice_set dst (doff + !li) !acc else fits := false;
    incr li
  end;
  for i = !li to w - 1 do
    slice_set dst (doff + i) 0
  done;
  !fits

(* Bits [lo, lo+16) of a w-limb slice (zero past the top). *)
let slice_u16 (s : slice) off w lo =
  let li = lo / base_bits and o = lo mod base_bits in
  let v = if li < w then slice_get s (off + li) lsr o else 0 in
  let v = if o > base_bits - 16 && li + 1 < w then v lor (slice_get s (off + li + 1) lsl (base_bits - o)) else v in
  v land 0xffff

let add_slice_bytes_le buf (src : slice) off w len =
  (* the value fits [len] bytes iff every bit at or past 8 len is zero *)
  let top = 8 * len in
  let li = top / base_bits in
  for j = li to w - 1 do
    let v = slice_get src (off + j) in
    if (if j = li then v lsr (top mod base_bits) else v) <> 0 then
      invalid_arg "Nat.add_slice_bytes_le: does not fit"
  done;
  for i = 0 to (len / 2) - 1 do
    Buffer.add_uint16_le buf (slice_u16 src off w (16 * i))
  done;
  if len land 1 = 1 then Buffer.add_char buf (Char.unsafe_chr (slice_u16 src off w (8 * (len - 1)) land 0xff))


let add_into ~width (dst : int array) (a : int array) (b : int array) : int =
  let carry = ref 0 in
  for i = 0 to width - 1 do
    let s = a.(i) + b.(i) + !carry in
    dst.(i) <- s land mask;
    carry := s lsr base_bits
  done;
  !carry

let sub_into ~width (dst : int array) (a : int array) (b : int array) : int =
  let borrow = ref 0 in
  for i = 0 to width - 1 do
    let s = a.(i) - b.(i) - !borrow in
    if s < 0 then begin
      dst.(i) <- s + base;
      borrow := 1
    end else begin
      dst.(i) <- s;
      borrow := 0
    end
  done;
  !borrow

(* Schoolbook product of [wa]-limb [a] and [wb]-limb [b] into
   [dst.(0 .. wa+wb-1)]. [dst] must not alias [a] or [b]. *)
let mul_limbs ~wa ~wb (dst : int array) (a : int array) (b : int array) : unit =
  Array.fill dst 0 (wa + wb) 0;
  for i = 0 to wa - 1 do
    let ai = a.(i) in
    if ai <> 0 then begin
      let carry = ref 0 in
      for j = 0 to wb - 1 do
        let p = dst.(i + j) + (ai * b.(j)) + !carry in
        dst.(i + j) <- p land mask;
        carry := p lsr base_bits
      done;
      let k = ref (i + wb) in
      while !carry <> 0 do
        let s = dst.(!k) + !carry in
        dst.(!k) <- s land mask;
        carry := s lsr base_bits;
        incr k
      done
    end
  done

let mul_into ~width ~scratch (dst : int array) (a : int array) (b : int array)
    : unit =
  if Array.length scratch < 2 * width then
    invalid_arg "Nat.mul_into: scratch shorter than 2*width";
  (* Compute into scratch so [dst] may alias [a] or [b]; [scratch] itself
     must not alias the inputs (it may alias or even be [dst]). *)
  mul_limbs ~wa:width ~wb:width scratch a b;
  if not (scratch == dst) then Array.blit scratch 0 dst 0 (2 * width)

let pp fmt a = Format.pp_print_string fmt (to_decimal a)
