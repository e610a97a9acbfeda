(* Input errors at the gcs-cli boundary exit 2 with a message, before any
   simulation starts. *)

let cli = "../../bin/gcs_cli.exe"

(* Exit code, stdout and stderr of [gcs-cli args]. *)
let run_cli args =
  let out_file = Filename.temp_file "gcs_cli" ".out" in
  let err_file = Filename.temp_file "gcs_cli" ".err" in
  let out = Unix.openfile out_file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
  let err = Unix.openfile err_file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
  let pid =
    Unix.create_process cli (Array.of_list (cli :: args)) Unix.stdin out err
  in
  Unix.close out;
  Unix.close err;
  let _, status = Unix.waitpid [] pid in
  let read file =
    let s = In_channel.with_open_text file In_channel.input_all in
    Sys.remove file;
    s
  in
  let stdout = read out_file in
  let stderr = read err_file in
  match status with
  | Unix.WEXITED code -> (code, stdout, stderr)
  | _ -> Alcotest.failf "gcs-cli %s: killed" (String.concat " " args)

(* Exit code and stderr of [gcs-cli args]. *)
let gcs_cli args =
  let code, _, stderr = run_cli args in
  (code, stderr)

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec at i = i + k <= n && (String.sub s i k = sub || at (i + 1)) in
  at 0

let input_error ~mentions args () =
  let code, stderr = gcs_cli args in
  Alcotest.(check int) (String.concat " " args) 2 code;
  if not (contains stderr mentions) then
    Alcotest.failf "stderr does not mention %S:\n%s" mentions stderr

let test_valid_run () =
  let code, stderr = gcs_cli [ "run"; "-t"; "ring:4"; "--horizon"; "5" ] in
  Alcotest.(check int) ("valid run: " ^ stderr) 0 code

(* Every other subcommand that takes --horizon. *)
let horizon_commands =
  [
    [ "compare" ]; [ "external" ]; [ "faults" ]; [ "sweep" ]; [ "trace" ];
    [ "report" ]; [ "live" ]; [ "check"; "run" ]; [ "check"; "battery" ];
  ]

let horizon_cases =
  (* nan used to die in Metrics.summarize; inf and 1e308 never finished *)
  List.map
    (fun h ->
      Alcotest.test_case ("run --horizon " ^ h) `Quick
        (input_error ~mentions:"horizon" [ "run"; "--horizon=" ^ h ]))
    [ "nan"; "inf"; "1e308"; "0"; "-5" ]
  @ List.map
      (fun cmd ->
        let name = String.concat " " cmd in
        Alcotest.test_case (name ^ " --horizon nan") `Quick
          (input_error ~mentions:"horizon" (cmd @ [ "--horizon=nan" ])))
      horizon_commands

let topology_cases =
  List.map
    (fun t ->
      Alcotest.test_case ("run -t " ^ t) `Quick
        (input_error ~mentions:t [ "run"; "-t"; t ]))
    [ "ring:1"; "grid:0x3"; "torus:2x5"; "star:1"; "btree:-1"; "gnp:8:2" ]

let explore_cases =
  (* nan used to die in Metrics.summarize, inf and 1e300 never finished,
     quantum 0 died in Canon.state, quantum nan was accepted; depth 40
     printed a negative prefix count, depth 1000000 never finished *)
  List.map
    (fun (mentions, args) ->
      Alcotest.test_case ("explore " ^ String.concat " " args) `Quick
        (input_error ~mentions ("explore" :: args)))
    [
      ("segment_len", [ "--segment-len=nan" ]);
      ("segment_len", [ "--segment-len=inf" ]);
      ("segment_len", [ "--segment-len=1e300"; "--depth=1" ]);
      ("segment_len", [ "--segment-len=0" ]);
      ("quantum", [ "--dedup"; "--quantum=0" ]);
      ("quantum", [ "--quantum=nan" ]);
      ("quantum", [ "--quantum=inf" ]);
      ("prefixes", [ "--depth=40"; "--max-states=5" ]);
      ("depth", [ "--depth=1000000"; "--max-states=1" ]);
      ("depth", [ "--depth=0" ]);
    ]

let attack_cases =
  (* each of these used to die in an uncaught Invalid_argument *)
  List.map
    (fun (mentions, args) ->
      Alcotest.test_case ("attack " ^ String.concat " " args) `Quick
        (input_error ~mentions ("attack" :: args)))
    [
      ("-n", [ "-n"; "2"; "--kind"; "churn" ]);
      ("-n", [ "-n"; "2"; "--kind"; "ring-bias" ]);
      ("-n", [ "-n"; "0"; "--kind"; "fan-lynch" ]);
      ("-n", [ "-n"; "0"; "--kind"; "linear" ]);
      ("-n", [ "-n"; "0"; "--kind"; "byz-search" ]);
      ("--segments", [ "--kind"; "byz-search"; "--segments"; "0" ]);
      ("--beam", [ "--kind"; "byz-search"; "--beam"; "0" ]);
    ]

(* The summary and tail of a simulated trace, byte for byte. *)
let trace_args = [ "trace"; "-t"; "ring:8"; "--horizon"; "20" ]

let trace_summary =
  "run: gradient on ring:8, horizon 20, 1 run(s)\n\
   observations: 324 sends, 306 delivers, 0 drops, 482 timers, 0 rate \
   changes, 0 fault events\n\
   run 0: final skews local 0.1637, global 0.1676\n\
   \n\
   last 5 events of run 0:\n\
  \   19.9228  timer    @ 1 (tag 1)\n\
  \   19.9536  timer    @ 4 (tag 0)\n\
  \   19.9536  send     4 -> 3 (edge 3, delay 1.2679)\n\
  \   19.9536  send     4 -> 5 (edge 4, delay 1.0627)\n\
  \   19.9974  deliver  -> 6 (port 0)\n"

let last_lines k s =
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' s) in
  List.filteri (fun i _ -> i >= List.length lines - k) lines

let test_trace_summary () =
  let code, stdout, stderr = run_cli (trace_args @ [ "--tail"; "5" ]) in
  Alcotest.(check int) ("trace: " ^ stderr) 0 code;
  Alcotest.(check string) "trace stdout" trace_summary stdout

(* A log exported with --events and read back with --input tails to the
   same lines the simulated run printed. *)
let test_trace_input_tail () =
  let file = Filename.temp_file "gcs_trace" ".jsonl" in
  let code, _, stderr = run_cli (trace_args @ [ "--events"; file ]) in
  Alcotest.(check int) ("trace --events: " ^ stderr) 0 code;
  let code, stdout, stderr =
    run_cli [ "trace"; "--input"; file; "--tail"; "5" ]
  in
  Sys.remove file;
  Alcotest.(check int) ("trace --input: " ^ stderr) 0 code;
  Alcotest.(check (list string))
    "tail lines" (last_lines 5 trace_summary) (last_lines 5 stdout)

let trace_cases =
  [
    Alcotest.test_case "summary and tail pinned" `Quick test_trace_summary;
    Alcotest.test_case "--input tail = simulated tail" `Quick
      test_trace_input_tail;
  ]

let () =
  Alcotest.run "gcs-cli"
    [
      ("cli.horizon", horizon_cases);
      ("cli.topology", topology_cases);
      ("cli.explore", explore_cases);
      ("cli.trace", trace_cases);
      ("cli.attack", attack_cases);
      ("cli.valid", [ Alcotest.test_case "valid run exits 0" `Quick test_valid_run ]);
    ]
