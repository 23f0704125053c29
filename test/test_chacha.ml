open Fieldlib
open Chacha

(* RFC 8439 section 2.3.2 test vector: key = 00 01 .. 1f, nonce =
   00:00:00:09:00:00:00:4a:00:00:00:00, block counter 1. *)
let rfc_key = Bytes.init 32 Char.chr

let rfc_nonce =
  Bytes.of_string "\x00\x00\x00\x09\x00\x00\x00\x4a\x00\x00\x00\x00"

let rfc_keystream_hex =
  "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
   d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"

let hex_of_bytes b =
  String.concat "" (List.init (Bytes.length b) (fun i -> Printf.sprintf "%02x" (Char.code (Bytes.get b i))))

let unit_tests =
  [
    Alcotest.test_case "RFC 8439 block vector" `Quick (fun () ->
        let key = Chacha20.key_of_bytes rfc_key in
        let nonce = Chacha20.nonce_of_bytes rfc_nonce in
        let ks = Bytes.create 64 in
        Chacha20.block_into key nonce 1 ks;
        Alcotest.(check string) "keystream" rfc_keystream_hex (hex_of_bytes ks));
    Alcotest.test_case "deterministic streams" `Quick (fun () ->
        let a = Prg.create ~seed:"test seed" () in
        let b = Prg.create ~seed:"test seed" () in
        Alcotest.(check bytes) "same" (Prg.bytes a 100) (Prg.bytes b 100));
    Alcotest.test_case "different seeds differ" `Quick (fun () ->
        let a = Prg.create ~seed:"seed one" () in
        let b = Prg.create ~seed:"seed two" () in
        Alcotest.(check bool) "differ" false (Prg.bytes a 32 = Prg.bytes b 32));
    Alcotest.test_case "split independence" `Quick (fun () ->
        let a = Prg.create ~seed:"parent" () in
        let c1 = Prg.split a in
        let c2 = Prg.split a in
        Alcotest.(check bool) "children differ" false (Prg.bytes c1 32 = Prg.bytes c2 32));
    Alcotest.test_case "int_below in range" `Quick (fun () ->
        let p = Prg.create ~seed:"ranges" () in
        for _ = 1 to 1000 do
          let n = 1 + Prg.int_below p 100 in
          let v = Prg.int_below p n in
          Alcotest.(check bool) "range" true (v >= 0 && v < n)
        done);
    Alcotest.test_case "field sampling uniform-ish" `Quick (fun () ->
        (* All samples in range; low-bit balance is a coarse sanity check. *)
        let ctx = Fp.create Primes.p61 in
        let p = Prg.create ~seed:"field" () in
        let ones = ref 0 in
        for _ = 1 to 500 do
          let x = Prg.field ctx p in
          Alcotest.(check bool) "in range" true (Nat.compare (Fp.to_nat x) (Fp.modulus ctx) < 0);
          if Nat.testbit (Fp.to_nat x) 0 then incr ones
        done;
        Alcotest.(check bool) "bit balance" true (!ones > 150 && !ones < 350));
    Alcotest.test_case "field_nonzero" `Quick (fun () ->
        let ctx = Fp.create (Nat.of_int 3) in
        let p = Prg.create ~seed:"nz" () in
        for _ = 1 to 100 do
          Alcotest.(check bool) "nonzero" false (Fp.is_zero (Prg.field_nonzero ctx p))
        done);
  ]

let suite = unit_tests
