module Spec = Gcs_core.Spec
module Dm = Gcs_sim.Delay_model

let test_defaults () =
  let s = Spec.make () in
  Alcotest.(check (float 1e-12)) "u" 1. (Spec.uncertainty s);
  Alcotest.(check (float 1e-12)) "vartheta" 1.01 (Spec.vartheta s);
  Alcotest.(check (float 1e-12)) "sigma" 10. (Spec.sigma s);
  Alcotest.(check bool) "kappa positive" true (s.Spec.kappa > 0.)

let test_kappa_dominates_estimate_error () =
  let s = Spec.make () in
  Alcotest.(check bool) "kappa >= 4 * estimate error" true
    (s.Spec.kappa >= 4. *. Spec.estimate_error_bound s -. 1e-9)

let test_sigma_infinite_when_perfect () =
  let s = Spec.make ~rho:0. () in
  Alcotest.(check bool) "infinite sigma" true (Float.is_integer (Spec.sigma s) = false || Spec.sigma s = infinity);
  Alcotest.(check (float 0.)) "sigma" infinity (Spec.sigma s)

let test_zero_uncertainty_kappa_positive () =
  let s = Spec.make ~rho:0. ~d_min:1. ~d_max:1. () in
  Alcotest.(check bool) "kappa still positive" true (s.Spec.kappa > 0.)

let test_default_kappa_clamp () =
  (* u = 0 and rho = 0 leave no estimate error: the quantum is clamped to a
     small positive value. Any u > 0 gives the formula's own value. *)
  Alcotest.(check (float 0.)) "u = 0, rho = 0" 1e-6
    (Spec.default_kappa ~u:0. ~rho:0. ~beacon_period:1.);
  Alcotest.(check (float 0.)) "u = 1"
    (4. *. (0.5 +. (0.01 *. ((2. *. 1.) +. 2.))))
    (Spec.default_kappa ~u:1. ~rho:0.01 ~beacon_period:1.);
  Alcotest.(check (float 0.)) "u = 0.2, rho = 0" (4. *. 0.1)
    (Spec.default_kappa ~u:0.2 ~rho:0. ~beacon_period:1.);
  Alcotest.(check (float 0.)) "make uses it" 1e-6
    (Spec.make ~rho:0. ~d_min:1. ~d_max:1. ()).Spec.kappa

let test_validation_failures () =
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | (_ : Spec.t) -> Alcotest.fail "accepted invalid spec"
  in
  expect_invalid (fun () -> Spec.make ~mu:0. ());
  expect_invalid (fun () -> Spec.make ~rho:0.2 ~mu:0.1 ());
  expect_invalid (fun () -> Spec.make ~beacon_period:0. ());
  expect_invalid (fun () -> Spec.make ~kappa:(-1.) ());
  expect_invalid (fun () -> Spec.make ~d_min:2. ~d_max:1. ())

let test_validate_ok () =
  match Spec.validate (Spec.make ()) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_estimate_error_grows_with_u () =
  let narrow = Spec.make ~d_min:1. ~d_max:1.2 () in
  let wide = Spec.make ~d_min:0.2 ~d_max:2. () in
  Alcotest.(check bool) "wider band, bigger error" true
    (Spec.estimate_error_bound wide > Spec.estimate_error_bound narrow)

let test_explicit_kappa_respected () =
  let s = Spec.make ~kappa:3.5 () in
  Alcotest.(check (float 1e-12)) "kappa" 3.5 s.Spec.kappa

let test_staleness_default_and_validation () =
  let s = Spec.make ~beacon_period:2. () in
  Alcotest.(check (float 1e-12)) "4 periods" 8. s.Spec.staleness_limit;
  let custom = Spec.make ~staleness_limit:3.5 () in
  Alcotest.(check (float 1e-12)) "explicit" 3.5 custom.Spec.staleness_limit;
  match Spec.make ~staleness_limit:0. () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted zero staleness"

let test_delay_bounds_stored () =
  let s = Spec.make ~d_min:0.25 ~d_max:0.75 () in
  Alcotest.(check (float 1e-12)) "d_min" 0.25 s.Spec.delay.Dm.d_min;
  Alcotest.(check (float 1e-12)) "d_max" 0.75 s.Spec.delay.Dm.d_max

let suite =
  [
    Alcotest.test_case "defaults" `Quick test_defaults;
    Alcotest.test_case "kappa dominates error" `Quick test_kappa_dominates_estimate_error;
    Alcotest.test_case "sigma infinite" `Quick test_sigma_infinite_when_perfect;
    Alcotest.test_case "zero-u kappa" `Quick test_zero_uncertainty_kappa_positive;
    Alcotest.test_case "default kappa clamp" `Quick test_default_kappa_clamp;
    Alcotest.test_case "validation failures" `Quick test_validation_failures;
    Alcotest.test_case "validate ok" `Quick test_validate_ok;
    Alcotest.test_case "error grows with u" `Quick test_estimate_error_grows_with_u;
    Alcotest.test_case "explicit kappa" `Quick test_explicit_kappa_respected;
    Alcotest.test_case "delay bounds stored" `Quick test_delay_bounds_stored;
    Alcotest.test_case "staleness limit" `Quick test_staleness_default_and_validation;
  ]
