(* Primality testing and the named field moduli used across the system.

   The paper runs over "a 128-bit prime" and "a field modulus of 220 bits"
   (§5.1), and quotes |F| = 2^192 in Appendix A.2. We pin concrete moduli
   deterministically: Mersenne primes where available, otherwise the first
   prime at or above a power of two, found by Miller-Rabin. *)

(* Deterministic witnesses make [is_prime] exact below 3.3 * 10^24 (~81
   bits); above that we add rounds with pseudorandom bases from a fixed
   xorshift stream, giving error < 4^-64. *)
let small_primes =
  [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47; 53; 59; 61; 67; 71; 73; 79; 83; 89; 97 ]

let deterministic_bases = [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37 ]
let extra_rounds = 64

let xorshift state =
  let x = !state in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  state := x land max_int;
  !state

let miller_rabin_witness ctx n n_minus_1 d s a =
  (* true iff [a] witnesses compositeness of [n] *)
  let a = Fp.of_nat ctx a in
  if Fp.is_zero a || Fp.equal a Fp.one then false
  else begin
    let x = ref (Fp.pow ctx a d) in
    if Fp.equal !x Fp.one || Nat.equal !x n_minus_1 then false
    else begin
      let witness = ref true in
      (try
         for _ = 1 to s - 1 do
           x := Fp.sqr ctx !x;
           if Nat.equal !x n_minus_1 then begin
             witness := false;
             raise Exit
           end
         done
       with Exit -> ());
      ignore n;
      !witness
    end
  end

let is_prime n =
  if Nat.compare n Nat.two < 0 then false
  else if Nat.equal n Nat.two then true
  else if Nat.is_even n then false
  else begin
    let small = List.exists (fun p ->
        let p = Nat.of_int p in
        if Nat.compare n p = 0 then true
        else snd (Nat.divmod n p) |> Nat.is_zero)
        small_primes
    in
    if small then List.exists (fun p -> Nat.equal n (Nat.of_int p)) small_primes
    else begin
      (* Primality testing is parameter-search arithmetic (candidate group
         or field moduli), not Figure-3 field work: tag it Group so the
         Miller-Rabin exponentiations stay out of the fp.mul ledger. *)
      let ctx = Fp.create ~tag:Fp.Group n in
      let n_minus_1 = Nat.sub n Nat.one in
      (* n - 1 = 2^s * d with d odd *)
      let rec split d s = if Nat.is_even d then split (Nat.shift_right d 1) (s + 1) else (d, s) in
      let d, s = split n_minus_1 0 in
      let composite_by a = miller_rabin_witness ctx n n_minus_1 d s a in
      if List.exists (fun b -> composite_by (Nat.of_int b)) deterministic_bases then false
      else if Nat.num_bits n <= 78 then true
      else begin
        let rng = ref 0x1e3779b97f4a7c15 in
        let bytes_needed = (Nat.num_bits n + 7) / 8 in
        let random_base () =
          let b = Bytes.create bytes_needed in
          for i = 0 to bytes_needed - 1 do
            Bytes.set b i (Char.chr (xorshift rng land 0xff))
          done;
          Nat.of_bytes_le b
        in
        let rec rounds k = if k = 0 then true else if composite_by (random_base ()) then false else rounds (k - 1) in
        rounds extra_rounds
      end
    end
  end

(* Cheap screen for parameter-search loops (ElGamal group generation):
   small-prime trial division plus a few strong-probable-prime rounds.
   Callers confirm final candidates with [is_prime]. *)
let probably_prime ?(bases = [ 2; 3; 5; 7 ]) n =
  if Nat.compare n (Nat.of_int 2) < 0 then false
  else if Nat.is_even n then Nat.equal n Nat.two
  else begin
    let divisible =
      List.exists
        (fun p -> Nat.compare n (Nat.of_int p) > 0 && snd (Nat.divmod_int n p) = 0)
        small_primes
    in
    if divisible then false
    else begin
      let ctx = Fp.create ~tag:Fp.Group n in
      let n_minus_1 = Nat.sub n Nat.one in
      let rec split d s = if Nat.is_even d then split (Nat.shift_right d 1) (s + 1) else (d, s) in
      let d, s = split n_minus_1 0 in
      not (List.exists (fun b -> miller_rabin_witness ctx n n_minus_1 d s (Nat.of_int b)) bases)
    end
  end

(* Smallest prime at or above [start]. *)
let prime_ge start =
  let n = ref (if Nat.is_even start then Nat.add start Nat.one else start) in
  if Nat.compare !n Nat.two < 0 then n := Nat.two;
  while not (is_prime !n) do
    n := Nat.add !n Nat.two
  done;
  !n

let mersenne e = Nat.sub (Nat.shift_left Nat.one e) Nat.one

let memo : (int, Nat.t) Hashtbl.t = Hashtbl.create 8

let first_prime_with_bits bits =
  match Hashtbl.find_opt memo bits with
  | Some p -> p
  | None ->
    let p = prime_ge (Nat.shift_left Nat.one (bits - 1)) in
    Hashtbl.add memo bits p;
    p

(* Named moduli. [p61] and [p127] are the Mersenne primes 2^61-1 and
   2^127-1; [p128]/[p192]/[p220] are the first primes >= 2^127 / 2^191 /
   2^219, matching the paper's "128-bit", "|F| = 2^192" and "220-bit"
   moduli. [bls12_381_fr] is the scalar field of BLS12-381 (2-adicity 32),
   used only by the NTT ablation. *)
let p61 = mersenne 61
let p89 = mersenne 89
let p127 = mersenne 127
let p128 () = first_prime_with_bits 128
let p192 () = first_prime_with_bits 192
let p220 () = first_prime_with_bits 220

let bls12_381_fr =
  Nat.of_hex "73eda753299d7d483339d80809a1d80553bda402fffe5bfeffffffff00000001"

(* (2^64 + 11) * 2^62 + 1: a 127-bit prime with 2-adicity 62, the
   NTT-friendly stand-in for the Mersenne [p127] (whose p-1 has 2-adicity
   1, so it admits no useful power-of-two subgroup). The production prover
   selects the roots-of-unity QAP over this field; [p127] keeps the
   seed-identical Lagrange transcripts. *)
let p127_ntt = Nat.of_hex "4000000000000002c000000000000001"

(* 2-adicity of p-1 and a generator of the 2^s-th roots of unity, needed by
   the NTT ablation. *)
let two_adicity p =
  let rec go n s = if Nat.is_even n then go (Nat.shift_right n 1) (s + 1) else s in
  go (Nat.sub p Nat.one) 0

let find_generator_of_two_power_subgroup ctx =
  (* Find g not a quadratic residue, then w = g^((p-1)/2^s). *)
  let p = Fp.modulus ctx in
  let s = two_adicity p in
  let odd_part = Nat.shift_right (Nat.sub p Nat.one) s in
  let half = Nat.shift_right (Nat.sub p Nat.one) 1 in
  let rec find c =
    let g = Fp.of_int ctx c in
    if Fp.equal (Fp.pow ctx g half) Fp.one then find (c + 1)
    else Fp.pow ctx g odd_part
  in
  find 2
