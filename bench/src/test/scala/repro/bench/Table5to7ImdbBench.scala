package repro.bench

import repro.SparkSpec
import repro.core.Metrics
import repro.exp.ImdbExperiment

/** Tables 5–7 on IMDb-lite: CERES-Full vs CERES-Topic.
  *
  * Paper shape (Table 5 "All Extractions"): Person — Topic P=0.36 / Full
  * P=0.93; Film/TV — Topic P=0.88 / Full P=0.99; Full F1 beats Topic on
  * both domains.  Table 6: Full annotation precision 0.93–0.96 vs Topic
  * 0.46–0.53, Topic recall slightly higher.  Table 7: topic-id P 0.97–0.99.
  */
class Table5to7ImdbBench extends SparkSpec {

  private lazy val r = BenchRuns.imdb

  test("Table 5: extraction quality per domain") {
    println(ImdbExperiment.renderTable5(r))
    succeed
  }
  test("shape T5: CERES-Full precision beats CERES-Topic on Person pages") {
    val full  = ImdbExperiment.table5(r, r.full, "Person")("ALL")
    val topic = ImdbExperiment.table5(r, r.topic, "Person")("ALL")
    info(s"Person full=${Metrics.fmt(full)} topic=${Metrics.fmt(topic)}")
    assert(full.p > topic.p, s"full.p=${full.p} topic.p=${topic.p}")
    assert(full.f1 > topic.f1)
  }
  test("shape T5: CERES-Full high precision on Film/TV (paper: 0.99)") {
    val full = ImdbExperiment.table5(r, r.full, "Film/TV")("ALL")
    info(s"Film/TV full=${Metrics.fmt(full)}")
    assert(full.p > 0.85, s"p=${full.p}")
  }

  test("Table 6: annotation accuracy per domain") {
    println(ImdbExperiment.renderTable6(r))
    succeed
  }
  test("shape T6: Full annotation precision beats Topic; Topic recall >= Full") {
    Seq("Person", "Film/TV").foreach { dom =>
      val full  = ImdbExperiment.table6(r, r.full, dom)("ALL")
      val topic = ImdbExperiment.table6(r, r.topic, dom)("ALL")
      info(s"$dom full=${Metrics.fmt(full)} topic=${Metrics.fmt(topic)}")
      assert(full.p > topic.p, s"$dom full.p=${full.p} topic.p=${topic.p}")
      assert(topic.r >= full.r - 0.05, s"$dom topic.r=${topic.r} full.r=${full.r}")
    }
  }
  test("shape T6: Full annotation precision is high (paper: 0.93-0.96)") {
    Seq("Person", "Film/TV").foreach { dom =>
      val full = ImdbExperiment.table6(r, r.full, dom)("ALL")
      assert(full.p > 0.8, s"$dom p=${full.p}")
    }
  }

  test("Table 7: topic identification accuracy") {
    println(ImdbExperiment.renderTable7(r))
    succeed
  }
  test("shape T7: topic identification precision is high (paper: 0.97-0.99)") {
    Seq("Person", "Film/TV").foreach { dom =>
      val m = ImdbExperiment.table7(r, dom)
      info(s"$dom ${Metrics.fmt(m)}")
      assert(m.p > 0.85, s"$dom p=${m.p}")
      assert(m.r > 0.5, s"$dom r=${m.r}")
    }
  }
}
