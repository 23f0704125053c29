(* Reference kernels for the byte<->limb boundary (DESIGN.md §17): the
   straightforward per-byte / per-bit / array-state forms the production
   kernels replaced. They live here only as differential oracles. *)

open Fieldlib

(* Natural from little-endian bytes, one shift-and-add per byte. *)
let of_bytes_le b =
  let acc = ref Nat.zero in
  for i = Bytes.length b - 1 downto 0 do
    acc := Nat.add_int (Nat.shift_left !acc 8) (Char.code (Bytes.get b i))
  done;
  !acc

(* Little-endian bytes of a natural, each byte built from eight testbits. *)
let to_bytes_le a len =
  if Nat.num_bits a > len * 8 then invalid_arg "Nat.to_bytes_le: does not fit";
  let b = Bytes.make len '\000' in
  let bits = Nat.num_bits a in
  for i = 0 to ((bits + 7) / 8) - 1 do
    let byte = ref 0 in
    for k = 7 downto 0 do
      byte := (!byte lsl 1) lor if Nat.testbit a ((i * 8) + k) then 1 else 0
    done;
    Bytes.set b i (Char.chr !byte)
  done;
  b

(* ChaCha20 block (RFC 8439 §2.3) over an explicit 16-word state array. *)
let mask32 = 0xFFFFFFFF
let rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask32

let quarter_round st a b c d =
  st.(a) <- (st.(a) + st.(b)) land mask32;
  st.(d) <- rotl (st.(d) lxor st.(a)) 16;
  st.(c) <- (st.(c) + st.(d)) land mask32;
  st.(b) <- rotl (st.(b) lxor st.(c)) 12;
  st.(a) <- (st.(a) + st.(b)) land mask32;
  st.(d) <- rotl (st.(d) lxor st.(a)) 8;
  st.(c) <- (st.(c) + st.(d)) land mask32;
  st.(b) <- rotl (st.(b) lxor st.(c)) 7

let chacha_block (key : int array) (nonce : int array) counter =
  let init = Array.make 16 0 in
  Array.blit [| 0x61707865; 0x3320646e; 0x79622d32; 0x6b206574 |] 0 init 0 4;
  Array.blit key 0 init 4 8;
  init.(12) <- counter land mask32;
  Array.blit nonce 0 init 13 3;
  let st = Array.copy init in
  for _ = 1 to 10 do
    quarter_round st 0 4 8 12;
    quarter_round st 1 5 9 13;
    quarter_round st 2 6 10 14;
    quarter_round st 3 7 11 15;
    quarter_round st 0 5 10 15;
    quarter_round st 1 6 11 12;
    quarter_round st 2 7 8 13;
    quarter_round st 3 4 9 14
  done;
  let out = Bytes.create 64 in
  for i = 0 to 15 do
    let w = (st.(i) + init.(i)) land mask32 in
    for j = 0 to 3 do
      Bytes.set out ((4 * i) + j) (Char.chr ((w lsr (8 * j)) land 0xff))
    done
  done;
  out

(* [Prg.bytes], one [Prg.byte] at a time. *)
let prg_bytes prg n = Bytes.init n (fun _ -> Char.chr (Chacha.Prg.byte prg))

(* The first [n] keystream bytes of [Prg.of_key key ~nonce], block by
   reference block (Prg's nonce-lane layout). *)
let keystream key ~nonce n =
  let nonce_words = [| nonce land 0xFFFFFFFF; (nonce lsr 32) land 0x3FFFFFFF; 0 |] in
  let blocks = (n + 63) / 64 in
  let all = Bytes.concat Bytes.empty (List.init blocks (chacha_block key nonce_words)) in
  Bytes.sub all 0 n
