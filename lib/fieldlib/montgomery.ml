type ctx = {
  p : Nat.t;
  k : int; (* limbs of p; R = 2^(31k) *)
  r_mod_p : Nat.t; (* R mod p: the Montgomery form of 1 *)
  r2_mod_p : Nat.t; (* R^2 mod p: converts into Montgomery form *)
  n0 : int; (* -p^{-1} mod 2^31: the per-limb REDC multiplier *)
}

type el = Nat.t

(* One count per REDC multiplication: the unit the exponentiation-ladder
   cost model is expressed in. *)
let c_mul = Zobs.Counter.make "mont.mul"

let modulus ctx = ctx.p
let equal = Nat.equal

let create p =
  if Nat.is_even p || Nat.compare p (Nat.of_int 3) < 0 then
    invalid_arg "Montgomery.create: modulus must be odd and >= 3";
  let k = Nat.num_limbs p in
  let r = Nat.shift_left Nat.one (31 * k) in
  let r_mod_p = snd (Nat.divmod r p) in
  let r2_mod_p = snd (Nat.divmod (Nat.sqr r_mod_p) p) in
  { p; k; r_mod_p; r2_mod_p; n0 = Limb.neg_inv (Nat.limb p 0) }

(* ------------------------------------------------------------------ *)
(* Packed REDC: the one Montgomery product, on limb slices              *)
(* ------------------------------------------------------------------ *)

(* Scratch for the packed Montgomery product. [t] is the (k+2)-limb CIOS
   accumulator; [consts] holds p, 1 and R^2 mod p (k limbs each); [reg]
   and [reg2] are k-limb registers for boxed operands, the boundary
   conversions and the fixed-base accumulator. Owned by one domain;
   obtain via [scratch_for]. *)
type scratch = {
  mk : int;
  n0 : int;
  consts : Limb.a; (* 3k limbs: p | 1 | R^2 mod p *)
  t : Limb.a; (* k+2 limbs *)
  reg : Limb.a; (* k limbs *)
  reg2 : Limb.a; (* k limbs: the second operand of a boxed [mul] *)
}

let c_one sc = sc.mk
let c_r2 sc = 2 * sc.mk

let scratch_create ctx =
  let k = ctx.k in
  let consts = Limb.create (3 * k) in
  Limb.of_nat ctx.p consts 0 k;
  Limb.of_nat Nat.one consts k k;
  Limb.of_nat ctx.r2_mod_p consts (2 * k) k;
  { mk = k; n0 = ctx.n0; consts; t = Limb.create (k + 2); reg = Limb.create k; reg2 = Limb.create k }

(* One scratch per (domain, modulus), in a short domain-local list keyed
   by the modulus value: a prover rebuilds the group context for every
   session (Group.of_params), and all those contexts must share one
   scratch rather than leave one behind each — the list would grow with
   the session count, and so would the scan in every boxed [mul]. *)
let scratch_cap = 4

let scratch_dls : (Nat.t * scratch) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let rec find_scratch p = function
  | [] -> raise Not_found
  | (q, sc) :: rest -> if Nat.equal q p then sc else find_scratch p rest

let scratch_for ctx =
  let cache = Domain.DLS.get scratch_dls in
  match !cache with
  | (q, sc) :: _ when q == ctx.p -> sc
  | entries ->
    let sc = try find_scratch ctx.p entries with Not_found -> scratch_create ctx in
    (* most recent first, keyed by this context's modulus *)
    let rest = List.filter (fun (_, s) -> s != sc) entries in
    cache := (ctx.p, sc) :: List.filteri (fun i _ -> i < scratch_cap - 1) rest;
    sc

(* dst <- a * b * R^{-1} mod p on k-limb slices (inputs < p), uncounted:
   the boundary conversions use it with b = 1 or R^2, which are not
   multiplications of the exponentiation ladder. The CIOS kernel itself
   is [Limb.redc]. Zero allocations. *)
let redc_into sc (dst : Limb.a) dso (a : Limb.a) ao (b : Limb.a) bo =
  Limb.redc ~k:sc.mk ~n0:sc.n0 sc.consts sc.t dst dso a ao b bo

(* dst <- REDC(a * b), everything in Montgomery form. One counted
   [mont.mul], zero allocations. *)
let mul_into _ctx sc (dst : Limb.a) dso (a : Limb.a) ao (b : Limb.a) bo =
  Zobs.Counter.incr c_mul;
  redc_into sc dst dso a ao b bo

(* Boundary conversions through the packed REDC: one load, one REDC, and
   the returned natural is the only allocation. *)
let to_mont ctx x =
  if Nat.compare x ctx.p >= 0 then invalid_arg "Montgomery.to_mont: input not reduced";
  let sc = scratch_for ctx in
  Limb.of_nat x sc.reg 0 sc.mk;
  redc_into sc sc.reg 0 sc.reg 0 sc.consts (c_r2 sc);
  Limb.to_nat sc.reg 0 sc.mk

let of_mont ctx x =
  let sc = scratch_for ctx in
  Limb.of_nat x sc.reg 0 sc.mk;
  redc_into sc sc.reg 0 sc.reg 0 sc.consts (c_one sc);
  Limb.to_nat sc.reg 0 sc.mk

(* Boxed operands go through the same packed product: load, REDC, and
   the returned natural is the only allocation. *)
let mul ctx a b =
  Zobs.Counter.incr c_mul;
  let sc = scratch_for ctx in
  Limb.of_nat a sc.reg 0 sc.mk;
  Limb.of_nat b sc.reg2 0 sc.mk;
  redc_into sc sc.reg 0 sc.reg 0 sc.reg2 0;
  Limb.to_nat sc.reg 0 sc.mk

let sqr ctx a =
  Zobs.Counter.incr c_mul;
  let sc = scratch_for ctx in
  Limb.of_nat a sc.reg 0 sc.mk;
  redc_into sc sc.reg 0 sc.reg 0 sc.reg 0;
  Limb.to_nat sc.reg 0 sc.mk

let one ctx = ctx.r_mod_p
let zero _ctx = Nat.zero

let add ctx a b =
  let s = Nat.add a b in
  if Nat.compare s ctx.p >= 0 then Nat.sub s ctx.p else s

let sub ctx a b = if Nat.compare a b >= 0 then Nat.sub a b else Nat.sub (Nat.add a ctx.p) b

let pow ctx b e =
  let nbits = Nat.num_bits e in
  let acc = ref (one ctx) in
  for i = nbits - 1 downto 0 do
    acc := sqr ctx !acc;
    if Nat.testbit e i then acc := mul ctx !acc b
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Exponentiation kernels (DESIGN.md §8)                               *)
(* ------------------------------------------------------------------ *)

(* Sliding-window square-and-multiply: one table of odd powers
   b, b^3, ..., b^(2^w - 1), then ~nbits/(w+1) multiplications instead of
   nbits/2. Window width grows with the exponent size. *)
let pow_window ctx b e =
  let nbits = Nat.num_bits e in
  if nbits <= 8 then pow ctx b e
  else begin
    let w = if nbits < 80 then 3 else if nbits < 240 then 4 else 5 in
    let b2 = sqr ctx b in
    let tbl = Array.make (1 lsl (w - 1)) b in
    for i = 1 to Array.length tbl - 1 do
      tbl.(i) <- mul ctx tbl.(i - 1) b2
    done;
    let acc = ref (one ctx) in
    let i = ref (nbits - 1) in
    while !i >= 0 do
      if not (Nat.testbit e !i) then begin
        acc := sqr ctx !acc;
        decr i
      end
      else begin
        (* widest window [l, i] of <= w bits whose low bit is set *)
        let l = ref (max 0 (!i - w + 1)) in
        while not (Nat.testbit e !l) do
          incr l
        done;
        let width = !i - !l + 1 in
        let d = Nat.bits e ~lo:!l ~w:width in
        for _ = 1 to width do
          acc := sqr ctx !acc
        done;
        acc := mul ctx !acc tbl.(d lsr 1);
        i := !l - 1
      end
    done;
    !acc
  end

(* Shamir/Straus simultaneous exponentiation: b1^e1 * b2^e2 in one shared
   squaring chain with a precomputed b1*b2 — about half the cost of two
   independent ladders. *)
let pow2 ctx b1 e1 b2 e2 =
  let n = max (Nat.num_bits e1) (Nat.num_bits e2) in
  if n = 0 then one ctx
  else begin
    let b12 = mul ctx b1 b2 in
    let acc = ref (one ctx) in
    for i = n - 1 downto 0 do
      acc := sqr ctx !acc;
      let x1 = Nat.testbit e1 i and x2 = Nat.testbit e2 i in
      if x1 && x2 then acc := mul ctx !acc b12
      else if x1 then acc := mul ctx !acc b1
      else if x2 then acc := mul ctx !acc b2
    done;
    !acc
  end

(* Fixed-base windowed precomputation: entry (i, j-1) of the packed table
   holds b^(j * 2^(w*i)) (Montgomery form), so b^e is one multiplication
   per nonzero base-2^w digit of e — no squarings at all once the table
   exists. The table costs about (bits/w) * 2^w multiplications and pays
   for itself after a handful of exponentiations. Entries are k-limb
   slices of one read-only arena, shareable across domains. *)
type fb = {
  fb_window : int;
  fb_digits : int;
  fb_k : int;
  fb_tab : Limb.a; (* digits * (2^w - 1) entries of k limbs *)
}

let fb_precompute ctx ?(window = 5) ~bits b =
  if window < 1 || window > 16 then invalid_arg "Montgomery.fb_precompute: window out of range";
  if bits < 1 then invalid_arg "Montgomery.fb_precompute: bits must be positive";
  let k = ctx.k in
  let sc = scratch_for ctx in
  let digits = (bits + window - 1) / window in
  let m = (1 lsl window) - 1 in
  let tab = Limb.create (digits * m * k) in
  (* [sc.reg] carries b^(2^(w*i)) from row to row. *)
  Limb.of_nat b sc.reg 0 k;
  for i = 0 to digits - 1 do
    let row = i * m * k in
    Limb.blit sc.reg 0 tab row k;
    for j = 1 to m - 1 do
      mul_into ctx sc tab (row + (j * k)) tab (row + ((j - 1) * k)) sc.reg 0
    done;
    if i < digits - 1 then
      for _ = 1 to window do
        mul_into ctx sc sc.reg 0 sc.reg 0 sc.reg 0
      done
  done;
  { fb_window = window; fb_digits = digits; fb_k = k; fb_tab = tab }

let fb_bits fb = fb.fb_window * fb.fb_digits

(* Bits [lo, lo+w) of the n-limb slice at src.(off), w < 31. *)
let slice_digit (src : Limb.a) off n lo w =
  let li = lo / 31 and o = lo mod 31 in
  let v = if li < n then Limb.get src (off + li) lsr o else 0 in
  let v = if o + w > 31 && li + 1 < n then v lor (Limb.get src (off + li + 1) lsl (31 - o)) else v in
  v land ((1 lsl w) - 1)

(* The accumulator starts from one in Montgomery form and multiplies
   every nonzero digit's entry in (counted [mont.mul]s, as a ladder
   would); the final REDC by 1 leaves Montgomery form in the register, so
   the returned residue is the only allocation. The exponent is read
   digit by digit straight from its limb slice. *)
let fb_pow_core ctx sc fb (src : Limb.a) off n =
  let k = fb.fb_k in
  let w = fb.fb_window and m = (1 lsl fb.fb_window) - 1 in
  Limb.of_nat ctx.r_mod_p sc.reg 0 k;
  for i = 0 to fb.fb_digits - 1 do
    let d = slice_digit src off n (i * w) w in
    if d <> 0 then mul_into ctx sc sc.reg 0 sc.reg 0 fb.fb_tab (((i * m) + d - 1) * k)
  done;
  redc_into sc sc.reg 0 sc.reg 0 sc.consts (c_one sc);
  Limb.to_nat sc.reg 0 k

let fb_pow_slice ctx fb (src : Limb.a) off n =
  let top = fb_bits fb in
  for j = top / 31 to n - 1 do
    let v = Limb.get src (off + j) in
    if (if j = top / 31 then v lsr (top mod 31) else v) <> 0 then
      invalid_arg "Montgomery.fb_pow_slice: exponent wider than the table"
  done;
  fb_pow_core ctx (scratch_for ctx) fb src off n

let fb_pow ctx fb e =
  if Nat.num_bits e > fb_bits fb then invalid_arg "Montgomery.fb_pow: exponent wider than the table";
  let sc = scratch_for ctx in
  Limb.of_nat e sc.reg2 0 sc.mk;
  fb_pow_core ctx sc fb sc.reg2 0 sc.mk

(* Pippenger bucket multi-exponentiation: prod_i bases.(i)^exps.(i).
   Exponents are scanned c bits at a time from the top; within a window
   each base is multiplied into the bucket of its digit, and the weighted
   bucket sum  sum_j j * bucket_j  is recovered with the running-suffix
   trick (two multiplications per nonempty-suffix bucket). Cost is about
   (bits/c) * (n + 2^c) multiplications + bits squarings, against
   n * 1.5 * bits for n independent ladders.

   The buckets live in one packed arena ([Limb.a] plus a bool occupancy
   vector) and the inner loop runs [mul_into] on slices: the historical
   boxed version allocated one option + several naturals per REDC, which
   dominated the commit pipeline's minor-heap traffic. Multiplication
   counts and results are unchanged (identity operands are still skipped
   via the occupancy flags, never multiplied). *)
let multi_pow ctx ?window (bases : el array) (exps : Nat.t array) =
  let n = Array.length bases in
  if n <> Array.length exps then invalid_arg "Montgomery.multi_pow: length mismatch";
  let maxbits = Array.fold_left (fun m e -> max m (Nat.num_bits e)) 0 exps in
  if n = 0 || maxbits = 0 then one ctx
  else begin
    let c =
      match window with
      | Some c ->
        if c < 1 || c > 16 then invalid_arg "Montgomery.multi_pow: window out of range";
        c
      | None ->
        (* ~log2 n, the classical optimum for (bits/c)*(n + 2^c) *)
        let rec lg k acc = if k <= 1 then acc else lg (k lsr 1) (acc + 1) in
        min 12 (max 1 (lg n 0 - 1))
    in
    let k = ctx.k in
    let sc = scratch_for ctx in
    let nbuckets = (1 lsl c) - 1 in
    let packed = Limb.create (n * k) in
    Array.iteri (fun i b -> Limb.of_nat b packed (i * k) k) bases;
    let buckets = Limb.create (nbuckets * k) in
    let occupied = Array.make nbuckets false in
    (* acc / running / wsum registers, one arena. *)
    let regs = Limb.create (3 * k) in
    let acc_o = 0 and run_o = k and wsum_o = 2 * k in
    let acc_set = ref false in
    let windows = (maxbits + c - 1) / c in
    for d = windows - 1 downto 0 do
      if !acc_set then
        for _ = 1 to c do
          mul_into ctx sc regs acc_o regs acc_o regs acc_o
        done;
      Array.fill occupied 0 nbuckets false;
      let lo = d * c in
      for i = 0 to n - 1 do
        let e = exps.(i) in
        let nbits = Nat.num_bits e in
        if lo < nbits then begin
          let dv = Nat.bits e ~lo ~w:c in
          if dv <> 0 then begin
            let off = (dv - 1) * k in
            if occupied.(dv - 1) then mul_into ctx sc buckets off buckets off packed (i * k)
            else begin
              Limb.blit packed (i * k) buckets off k;
              occupied.(dv - 1) <- true
            end
          end
        end
      done;
      let run_set = ref false and wsum_set = ref false in
      for j = nbuckets - 1 downto 0 do
        if occupied.(j) then
          if !run_set then mul_into ctx sc regs run_o regs run_o buckets (j * k)
          else begin
            Limb.blit buckets (j * k) regs run_o k;
            run_set := true
          end;
        if !run_set then
          if !wsum_set then mul_into ctx sc regs wsum_o regs wsum_o regs run_o
          else begin
            Limb.blit regs run_o regs wsum_o k;
            wsum_set := true
          end
      done;
      if !wsum_set then
        if !acc_set then mul_into ctx sc regs acc_o regs acc_o regs wsum_o
        else begin
          Limb.blit regs wsum_o regs acc_o k;
          acc_set := true
        end
    done;
    if !acc_set then Limb.to_nat regs acc_o k else one ctx
  end

let pow_nat ctx b e =
  let b = snd (Nat.divmod b ctx.p) in
  of_mont ctx (pow_window ctx (to_mont ctx b) e)
