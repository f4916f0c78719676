package repro.perfbench

import java.nio.file.{Files, Paths}

import org.apache.spark.sql.SparkSession
import org.json4s._
import org.json4s.jackson.JsonMethods.parse
import org.scalatest.funsuite.AnyFunSuite

import repro.cluster.TemplateClustering
import repro.core.Ceres
import repro.web.ImdbWorld

/** Self-test of the benchmark: every workload runs at a tiny size and emits
  * every metric `BENCHMARK.json` names, with its unit; and the traced mirror
  * produces exactly `Ceres.run`'s output.
  */
class PerfBenchSpec extends AnyFunSuite {

  implicit lazy val spark: SparkSession = SparkSession.builder
    .master("local[4]")
    .appName("perfbench-selftest")
    .config("spark.sql.shuffle.partitions", "16")
    .config("spark.sql.autoBroadcastJoinThreshold", -1)
    .getOrCreate()

  private implicit val formats: Formats = DefaultFormats

  private lazy val spec = parse(new String(Files.readAllBytes(Paths.get("..", "BENCHMARK.json")), "UTF-8"))

  private def declared(key: String): Vector[(String, String)] =
    (spec \ key).extract[List[Map[String, Any]]].map(m => m("name").toString -> m("unit").toString).toVector

  test("BENCHMARK.json names the workloads the benchmark runs") {
    assert((spec \ "workloads").extract[List[Map[String, String]]].map(_("name")).toVector == Workloads.Names)
  }

  (Workloads.Names :+ "longtail").foreach { name =>
    test(s"$name: every declared metric is emitted with its unit (tiny size)") {
      Seq(false -> "end_to_end", true -> "per_layer").foreach { case (trace, key) =>
        val r = Bench.run(Workloads.byName(name, Workloads.Tiny), Workloads.byName(name, Workloads.Tiny).defaultSeed,
          seconds = 0, trace = trace, parallelism = 4, genReps = 1)
        assert(r.metrics.toVector.map { case (k, m) => k -> m.unit } == declared(key), key)
        assert(r.attempted > 0)
        // At this size the shape bands may not hold; only thrown or
        // non-repeating operations would show a broken benchmark here.
        assert(!r.notes.exists(n => n.contains("threw") || n.contains("differs")), r.notes.mkString("\n"))
        val json = parse(Bench.json(r))
        assert((json \ "metrics").extract[Map[String, Map[String, Any]]].keySet == declared(key).map(_._1).toSet)
      }
    }
  }

  test("traced mirror matches Ceres.run on a two-cluster IMDb page set") {
    val imdb  = ImdbWorld.build(40, 50, 90, 40, 50, seed = 55)
    val pages = Workloads.dataset(imdb.site.pages)
    assert(TemplateClustering.assign(pages).map(_.cluster)(org.apache.spark.sql.Encoders.scalaInt)
      .distinct().count() == 2)
    val trainIds = imdb.site.pages.map(_.pageId).sorted.grouped(2).map(_.head).toSet
    val cfg = Ceres.Config(mode = Ceres.Full)
    val want = Ceres.run(pages, trainIds, imdb.kb, cfg)
    val rec  = new Tracer.Recorder
    val got  = rec.op("imdb")(TracedCeres.run(pages, trainIds, imdb.kb, cfg, rec))

    assert(want.extractions.nonEmpty)
    assert(Workloads.extractionDigest(got.extractions) == Workloads.extractionDigest(want.extractions))
    assert(Workloads.annotationDigest(got) == Workloads.annotationDigest(want))
    assert(got.topics == want.topics)

    val stages = rec.spans.filter(_.name != "op").sortBy(_.startNs).map(_.name)
    assert(stages.head == "cluster.assign")
    assert(stages.tail.grouped(6).toVector.forall(_ == Vector("core.topicid", "core.annot", "core.featuregen",
      "core.trainer.examples", "core.trainer.train", "core.extractor")), stages)
    assert(rec.counts("core.trainer.fits") == 2)
    assert(rec.spans.forall(_.opId == "imdb"))
  }
}
