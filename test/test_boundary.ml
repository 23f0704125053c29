open Fieldlib

(* Differential tests for the byte<->limb boundary kernels (DESIGN.md
   §17) against the reference forms in [Oracles]. *)

let nat = Alcotest.testable Nat.pp Nat.equal
let hex b = String.concat "" (List.init (Bytes.length b) (fun i -> Printf.sprintf "%02x" (Char.code (Bytes.get b i))))
let prg seed = Chacha.Prg.create ~seed ()

(* Byte patterns of width w: zero, all-0xff, random, random with the top
   (most significant) bytes zero, random with the low bytes zero. *)
let patterns p w =
  let rnd () = Chacha.Prg.bytes p w in
  let zero_top b =
    let b = Bytes.copy b in
    Bytes.fill b (w / 2) (w - (w / 2)) '\000';
    b
  in
  let zero_low b =
    let b = Bytes.copy b in
    Bytes.fill b 0 (w / 2) '\000';
    b
  in
  let r = rnd () in
  [ ("zero", Bytes.make w '\000'); ("ff", Bytes.make w '\xff'); ("random", r);
    ("leading zeros", zero_top r); ("trailing zeros", zero_low (rnd ())) ]

let codec_tests =
  [
    Alcotest.test_case "of_bytes_le/of_bytes_sub = per-byte oracle, widths 0-130" `Quick (fun () ->
        let p = prg "boundary decode" in
        for w = 0 to 130 do
          List.iter
            (fun (name, b) ->
              let what = Printf.sprintf "w=%d %s" w name in
              let expect = Oracles.of_bytes_le b in
              Alcotest.check nat what expect (Nat.of_bytes_le b);
              Alcotest.(check int) (what ^ " canonical") (Nat.num_limbs expect)
                (Nat.num_limbs (Nat.of_bytes_le b));
              (* in place, between unrelated bytes *)
              let framed = Bytes.concat Bytes.empty [ Bytes.of_string "\xaa\x55\x01"; b; Bytes.of_string "\xff\x07" ] in
              Alcotest.check nat (what ^ " sub") expect (Nat.of_bytes_sub framed 3 w))
            (patterns p w)
        done);
    Alcotest.test_case "to_bytes_le/add_bytes_le = per-bit oracle, widths 0-130" `Quick (fun () ->
        let p = prg "boundary encode" in
        for w = 0 to 130 do
          List.iter
            (fun (name, b) ->
              let what = Printf.sprintf "w=%d %s" w name in
              let v = Oracles.of_bytes_le b in
              let expect = Oracles.to_bytes_le v w in
              Alcotest.(check string) what (hex expect) (hex (Nat.to_bytes_le v w));
              (* wider than needed: zero-padded *)
              Alcotest.(check string) (what ^ " padded") (hex (Oracles.to_bytes_le v (w + 3)))
                (hex (Nat.to_bytes_le v (w + 3)));
              let buf = Buffer.create 8 in
              Buffer.add_char buf '\x01';
              Nat.add_bytes_le buf v w;
              Alcotest.(check string) (what ^ " buffer") ("01" ^ hex expect)
                (hex (Buffer.to_bytes buf)))
            (patterns p w)
        done);
    Alcotest.test_case "to_bytes_le raises on a value that does not fit" `Quick (fun () ->
        for w = 0 to 40 do
          let v = Nat.shift_left Nat.one (8 * w) in
          let raises what f =
            match f () with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.failf "%s: w=%d accepted a %d-bit value" what w (Nat.num_bits v)
          in
          raises "oracle" (fun () -> ignore (Oracles.to_bytes_le v w));
          raises "to_bytes_le" (fun () -> ignore (Nat.to_bytes_le v w));
          raises "add_bytes_le" (fun () -> Nat.add_bytes_le (Buffer.create 1) v w);
          (* one bit less fits *)
          let fits = Nat.sub v Nat.one in
          Alcotest.(check string) (Printf.sprintf "w=%d max" w)
            (hex (Oracles.to_bytes_le fits w)) (hex (Nat.to_bytes_le fits w))
        done);
  ]

let key = Chacha.Chacha20.key_of_bytes (Bytes.init 32 (fun i -> Char.chr (((i * 29) + 3) land 0xff)))

let chacha_tests =
  [
    Alcotest.test_case "block_into = array-state oracle at counters 0, 1, 2^32-1" `Quick (fun () ->
        let nonce = [| 0x01020304; 0x0a0b0c0d; 0x7f000001 |] in
        List.iter
          (fun counter ->
            let dst = Bytes.make 64 '\000' in
            Chacha.Chacha20.block_into key nonce counter dst;
            Alcotest.(check string) (Printf.sprintf "counter %d" counter)
              (hex (Oracles.chacha_block key nonce counter)) (hex dst))
          [ 0; 1; 0xFFFFFFFF; 0x100000000 (* wraps to 0 *) ]);
    Alcotest.test_case "Prg.bytes n for n = 1..200 = reference keystream" `Quick (fun () ->
        let nonce = 0x1234_5678_9abc in
        let a = Chacha.Prg.of_key key ~nonce and b = Chacha.Prg.of_key key ~nonce in
        let total = 200 * 201 / 2 in
        let expect = Oracles.keystream key ~nonce total in
        let pos = ref 0 in
        for n = 1 to 200 do
          let got = Chacha.Prg.bytes a n in
          Alcotest.(check string) (Printf.sprintf "n=%d at %d" n !pos) (hex (Bytes.sub expect !pos n)) (hex got);
          Alcotest.(check string) (Printf.sprintf "n=%d byte-at-a-time" n) (hex got) (hex (Oracles.prg_bytes b n));
          pos := !pos + n
        done);
  ]

(* Prg.field must consume exactly the bytes Fp.sample would, in the same
   order, and return the same elements: checked by drawing from twin
   streams (interleaved with odd-sized byte reads so attempts straddle
   block boundaries) and comparing the next keystream bytes after. *)
let field_tests =
  let check_field name modulus =
    Alcotest.test_case ("Prg.field = Fp.sample over the same stream, " ^ name) `Quick (fun () ->
        let ctx = Fp.create modulus in
        let a = prg ("field twin " ^ name) and b = prg ("field twin " ^ name) in
        for i = 1 to 400 do
          if i mod 7 = 0 then begin
            let n = 1 + (i mod 13) in
            Alcotest.(check string) "interleaved bytes" (hex (Chacha.Prg.bytes b n)) (hex (Chacha.Prg.bytes a n))
          end;
          let x = Chacha.Prg.field ctx a in
          let y = Fp.sample ctx (fun n -> Chacha.Prg.bytes b n) in
          Alcotest.check nat (Printf.sprintf "draw %d" i) (Fp.to_nat y) (Fp.to_nat x);
          Alcotest.(check int) "canonical" (Nat.num_limbs (Fp.to_nat y)) (Nat.num_limbs (Fp.to_nat x))
        done;
        Alcotest.(check string) "streams in step" (hex (Chacha.Prg.bytes b 64)) (hex (Chacha.Prg.bytes a 64)))
  in
  [
    check_field "p127" Primes.p127;
    check_field "p127_ntt" Primes.p127_ntt;
    check_field "p220" (Primes.p220 ());
    check_field "p61" Primes.p61;
  ]

let suite = codec_tests @ chacha_tests @ field_tests
