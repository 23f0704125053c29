(* ChaCha20 stream cipher core (RFC 7539 / RFC 8439), used as the system's
   pseudorandom generator exactly as in the paper (§5.1, citing [13]).

   Implemented on native ints with explicit 32-bit masking; OCaml ints are 63
   bits so a 32-bit add never overflows before the mask. The block function
   keeps the 16-word state in local mutable variables (registers or stack
   slots, never the heap) and writes the keystream into a caller-owned
   buffer, so a block costs no allocation at all. *)

let mask32 = 0xFFFFFFFF

let rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask32

type key = int array (* 8 words *)
type nonce = int array (* 3 words *)

let word_of_bytes b off =
  Char.code (Bytes.get b off)
  lor (Char.code (Bytes.get b (off + 1)) lsl 8)
  lor (Char.code (Bytes.get b (off + 2)) lsl 16)
  lor (Char.code (Bytes.get b (off + 3)) lsl 24)

let key_of_bytes b =
  if Bytes.length b <> 32 then invalid_arg "Chacha20.key_of_bytes: need 32 bytes";
  Array.init 8 (fun i -> word_of_bytes b (4 * i))

let nonce_of_bytes b =
  if Bytes.length b <> 12 then invalid_arg "Chacha20.nonce_of_bytes: need 12 bytes";
  Array.init 3 (fun i -> word_of_bytes b (4 * i))

let key_of_string s = key_of_bytes (Bytes.of_string s)

let put_word dst off w =
  Bytes.set_uint16_le dst off (w land 0xffff);
  Bytes.set_uint16_le dst (off + 2) (w lsr 16)

(* One 64-byte keystream block for a 32-bit counter, into dst.(0..63). *)
let block_into (key : key) (nonce : nonce) counter dst =
  if Bytes.length dst < 64 then invalid_arg "Chacha20.block_into: need 64 bytes";
  let i0 = 0x61707865 and i1 = 0x3320646e and i2 = 0x79622d32 and i3 = 0x6b206574 in
  let i4 = key.(0) and i5 = key.(1) and i6 = key.(2) and i7 = key.(3) in
  let i8 = key.(4) and i9 = key.(5) and i10 = key.(6) and i11 = key.(7) in
  let i12 = counter land mask32 and i13 = nonce.(0) and i14 = nonce.(1) and i15 = nonce.(2) in
  let x0 = ref i0 and x1 = ref i1 and x2 = ref i2 and x3 = ref i3 in
  let x4 = ref i4 and x5 = ref i5 and x6 = ref i6 and x7 = ref i7 in
  let x8 = ref i8 and x9 = ref i9 and x10 = ref i10 and x11 = ref i11 in
  let x12 = ref i12 and x13 = ref i13 and x14 = ref i14 and x15 = ref i15 in
  for _ = 1 to 10 do
    (* column rounds: (0 4 8 12) (1 5 9 13) (2 6 10 14) (3 7 11 15) *)
    x0 := (!x0 + !x4) land mask32; x12 := rotl (!x12 lxor !x0) 16;
    x8 := (!x8 + !x12) land mask32; x4 := rotl (!x4 lxor !x8) 12;
    x0 := (!x0 + !x4) land mask32; x12 := rotl (!x12 lxor !x0) 8;
    x8 := (!x8 + !x12) land mask32; x4 := rotl (!x4 lxor !x8) 7;
    x1 := (!x1 + !x5) land mask32; x13 := rotl (!x13 lxor !x1) 16;
    x9 := (!x9 + !x13) land mask32; x5 := rotl (!x5 lxor !x9) 12;
    x1 := (!x1 + !x5) land mask32; x13 := rotl (!x13 lxor !x1) 8;
    x9 := (!x9 + !x13) land mask32; x5 := rotl (!x5 lxor !x9) 7;
    x2 := (!x2 + !x6) land mask32; x14 := rotl (!x14 lxor !x2) 16;
    x10 := (!x10 + !x14) land mask32; x6 := rotl (!x6 lxor !x10) 12;
    x2 := (!x2 + !x6) land mask32; x14 := rotl (!x14 lxor !x2) 8;
    x10 := (!x10 + !x14) land mask32; x6 := rotl (!x6 lxor !x10) 7;
    x3 := (!x3 + !x7) land mask32; x15 := rotl (!x15 lxor !x3) 16;
    x11 := (!x11 + !x15) land mask32; x7 := rotl (!x7 lxor !x11) 12;
    x3 := (!x3 + !x7) land mask32; x15 := rotl (!x15 lxor !x3) 8;
    x11 := (!x11 + !x15) land mask32; x7 := rotl (!x7 lxor !x11) 7;
    (* diagonal rounds: (0 5 10 15) (1 6 11 12) (2 7 8 13) (3 4 9 14) *)
    x0 := (!x0 + !x5) land mask32; x15 := rotl (!x15 lxor !x0) 16;
    x10 := (!x10 + !x15) land mask32; x5 := rotl (!x5 lxor !x10) 12;
    x0 := (!x0 + !x5) land mask32; x15 := rotl (!x15 lxor !x0) 8;
    x10 := (!x10 + !x15) land mask32; x5 := rotl (!x5 lxor !x10) 7;
    x1 := (!x1 + !x6) land mask32; x12 := rotl (!x12 lxor !x1) 16;
    x11 := (!x11 + !x12) land mask32; x6 := rotl (!x6 lxor !x11) 12;
    x1 := (!x1 + !x6) land mask32; x12 := rotl (!x12 lxor !x1) 8;
    x11 := (!x11 + !x12) land mask32; x6 := rotl (!x6 lxor !x11) 7;
    x2 := (!x2 + !x7) land mask32; x13 := rotl (!x13 lxor !x2) 16;
    x8 := (!x8 + !x13) land mask32; x7 := rotl (!x7 lxor !x8) 12;
    x2 := (!x2 + !x7) land mask32; x13 := rotl (!x13 lxor !x2) 8;
    x8 := (!x8 + !x13) land mask32; x7 := rotl (!x7 lxor !x8) 7;
    x3 := (!x3 + !x4) land mask32; x14 := rotl (!x14 lxor !x3) 16;
    x9 := (!x9 + !x14) land mask32; x4 := rotl (!x4 lxor !x9) 12;
    x3 := (!x3 + !x4) land mask32; x14 := rotl (!x14 lxor !x3) 8;
    x9 := (!x9 + !x14) land mask32; x4 := rotl (!x4 lxor !x9) 7
  done;
  put_word dst 0 ((!x0 + i0) land mask32);
  put_word dst 4 ((!x1 + i1) land mask32);
  put_word dst 8 ((!x2 + i2) land mask32);
  put_word dst 12 ((!x3 + i3) land mask32);
  put_word dst 16 ((!x4 + i4) land mask32);
  put_word dst 20 ((!x5 + i5) land mask32);
  put_word dst 24 ((!x6 + i6) land mask32);
  put_word dst 28 ((!x7 + i7) land mask32);
  put_word dst 32 ((!x8 + i8) land mask32);
  put_word dst 36 ((!x9 + i9) land mask32);
  put_word dst 40 ((!x10 + i10) land mask32);
  put_word dst 44 ((!x11 + i11) land mask32);
  put_word dst 48 ((!x12 + i12) land mask32);
  put_word dst 52 ((!x13 + i13) land mask32);
  put_word dst 56 ((!x14 + i14) land mask32);
  put_word dst 60 ((!x15 + i15) land mask32)
