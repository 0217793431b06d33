let () =
  Alcotest.run "rxv"
    [
      ("relational", Suite_relational.tests);
      ("spj_random", Suite_spj_random.tests);
      ("xpath", Suite_xpath.tests);
      ("io", Suite_io.tests);
      ("sat", Suite_sat.tests);
      ("dag", Suite_dag.tests);
      ("dag_eval", Suite_dag_eval.tests);
      ("dag_eval_adversarial", Suite_dag_eval_adversarial.tests);
      ("snapshot", Suite_snapshot.tests);
      ("atg", Suite_atg.tests);
      ("vupdate", Suite_vupdate.tests);
      ("vdelete", Suite_vdelete.tests);
      ("validate", Suite_validate.tests);
      ("workload", Suite_workload.tests);
      ("base_update", Suite_base_update.tests);
      ("core_units", Suite_core_units.tests);
      ("transactions", Suite_transactions.tests);
      ("journal", Suite_journal.tests);
      ("persist", Suite_persist.tests);
      ("crash", Suite_crash.tests);
      ("misc", Suite_misc.tests);
      ("roundtrip", Suite_roundtrip.tests);
      ("paper_examples", Suite_paper_examples.tests);
      ("engine", Suite_engine.tests);
      ("server", Suite_server.tests);
      ("replica", Suite_replica.tests);
      ("fault", Suite_fault.tests);
    ]
