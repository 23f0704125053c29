type t = {
  key : Chacha20.key;
  nonce : Chacha20.nonce;
  mutable counter : int;
  buf : bytes; (* the current 64-byte keystream block, reused *)
  mutable pos : int; (* next unread byte of [buf]; 64 = exhausted *)
  mutable draw : bytes; (* field-sampling candidate straddling two blocks *)
  mutable limbs : int array; (* field-sampling candidate, decoded; sized to the modulus *)
}

(* Pad or fold an arbitrary seed string into 32 key bytes. We have no hash
   substrate and need none: seeds are operator-chosen labels, not secrets
   adversaries pick, so simple folding suffices. *)
let key_bytes_of_seed seed =
  let b = Bytes.make 32 '\000' in
  String.iteri
    (fun i c ->
      let j = i mod 32 in
      Bytes.set b j (Char.chr (Char.code (Bytes.get b j) lxor Char.code c lxor (i land 0xff))))
    seed;
  b

let block_len = 64

let of_key key ~nonce =
  {
    key;
    nonce = [| nonce land 0xFFFFFFFF; (nonce lsr 32) land 0x3FFFFFFF; 0 |];
    counter = 0;
    buf = Bytes.create block_len;
    pos = block_len;
    draw = Bytes.empty;
    limbs = [||];
  }

let create ?(nonce = 0) ~seed () = of_key (Chacha20.key_of_bytes (key_bytes_of_seed seed)) ~nonce

let c_bytes = Zobs.Counter.make "prg.bytes"

let refill t =
  Chacha20.block_into t.key t.nonce t.counter t.buf;
  Zobs.Counter.add c_bytes block_len;
  t.counter <- t.counter + 1;
  t.pos <- 0

let byte t =
  if t.pos >= block_len then refill t;
  let b = Char.code (Bytes.get t.buf t.pos) in
  t.pos <- t.pos + 1;
  b

(* The next [n] keystream bytes into dst.(off ..), a block run at a time. *)
let fill t dst off n =
  let off = ref off and n = ref n in
  while !n > 0 do
    if t.pos >= block_len then refill t;
    let run = min !n (block_len - t.pos) in
    Bytes.blit t.buf t.pos dst !off run;
    t.pos <- t.pos + run;
    off := !off + run;
    n := !n - run
  done

let bytes t n =
  let out = Bytes.create n in
  fill t out 0 n;
  out

let split t =
  (* Derive a fresh key and bump the nonce lane so streams are disjoint. *)
  let kb = bytes t 32 in
  let child = of_key (Chacha20.key_of_bytes kb) ~nonce:0 in
  child

let bits64 t =
  let v = ref 0 in
  for i = 0 to 7 do
    v := !v lor (byte t lsl (8 * i))
  done;
  !v land max_int

let rec int_below t n =
  if n <= 0 then invalid_arg "Prg.int_below";
  (* Rejection against the largest multiple of n below 2^62. *)
  let limit = max_int - (max_int mod n) in
  let v = bits64 t in
  if v < limit then v mod n else int_below t n

let bool t = byte t land 1 = 1

(* The paper's c row: pseudorandomly generate a field element (§5.1). Each
   draw counts once however many rejection rounds it takes; field_nonzero
   retries count per draw, matching what the verifier actually consumes. *)
let c_field = Zobs.Counter.make "prg.field"

(* Fieldlib.Fp.sample's rejection sampling, run on the keystream in place:
   each attempt takes exactly [num_bytes ctx] bytes, keeps the low
   [bits ctx] bits (Fp.sample's top-byte mask) and decodes them into the
   reused limb scratch; a candidate at or above the modulus is dropped
   without allocating. The accepted one is left in the scratch: [field]
   boxes it (its only allocation), [field_into] copies it into a slot. *)
let draw ctx t =
  Zobs.Counter.incr c_field;
  let p = Fieldlib.Fp.modulus ctx and bits = Fieldlib.Fp.bits ctx in
  let nb = Fieldlib.Fp.num_bytes ctx and width = Fieldlib.Nat.num_limbs p in
  if Array.length t.limbs <> width then t.limbs <- Array.make width 0;
  if Bytes.length t.draw < nb then t.draw <- Bytes.create nb;
  let accepted = ref false in
  while not !accepted do
    (* decode straight from the block unless the attempt straddles two *)
    if block_len - t.pos >= nb then begin
      Fieldlib.Nat.load_bits_le ~width t.limbs t.buf t.pos ~bits;
      t.pos <- t.pos + nb
    end
    else begin
      fill t t.draw 0 nb;
      Fieldlib.Nat.load_bits_le ~width t.limbs t.draw 0 ~bits
    end;
    accepted := Fieldlib.Nat.compare_limbs ~width t.limbs p < 0
  done

let field ctx t =
  draw ctx t;
  Fieldlib.Fp.of_nat ctx (Fieldlib.Nat.of_limbs t.limbs)

(* The same draw, landing in slot [i] of a packed vector (whose limb
   width is the modulus's): no allocation at all. *)
let field_into ctx t (v : Fieldlib.Fp.Vec.t) i =
  draw ctx t;
  if v.Fieldlib.Fp.Vec.k <> Array.length t.limbs then invalid_arg "Prg.field_into: limb width";
  let o = i * v.Fieldlib.Fp.Vec.k in
  for j = 0 to v.Fieldlib.Fp.Vec.k - 1 do
    Fieldlib.Limb.set v.Fieldlib.Fp.Vec.buf (o + j) t.limbs.(j)
  done

let field_vec ctx t n =
  let v = Fieldlib.Fp.Vec.create ctx n in
  for i = 0 to n - 1 do
    field_into ctx t v i
  done;
  v

let rec field_nonzero ctx t =
  let x = field ctx t in
  if Fieldlib.Fp.is_zero x then field_nonzero ctx t else x

let field_array ctx t n = Array.init n (fun _ -> field ctx t)
