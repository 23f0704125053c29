(** ChaCha20 stream cipher core (RFC 7539 / RFC 8439): the system's
    pseudorandom generator, exactly as the paper uses ChaCha (§5.1).
    Verified against the RFC keystream test vector in the test-suite. *)

type key = int array (* 8 32-bit words *)
type nonce = int array (* 3 32-bit words *)

val key_of_bytes : bytes -> key
(** Exactly 32 bytes, little-endian words. *)

val key_of_string : string -> key

val nonce_of_bytes : bytes -> nonce
(** Exactly 12 bytes. *)

val block_into : key -> nonce -> int -> bytes -> unit
(** [block_into key nonce counter dst] writes the 64-byte keystream block
    for a 32-bit block counter into [dst.(0..63)]. The state lives in
    locals and nothing is allocated. *)
