package repro

import java.nio.charset.StandardCharsets.UTF_8
import java.security.MessageDigest

import org.apache.spark.sql.{Encoders, SparkSession}

import repro.baseline.{CeresBaseline, VertexPP}
import repro.core.{Ceres, RelationAnnot}
import repro.exp.{ImdbExperiment, LongTailExperiment}
import repro.util.Normalize
import repro.web.{LongTailSites, Verticals}

/** Pipeline outputs at small sizes against `golden/results.txt`: for each
  * run, the row count and a SHA-256 of the sorted rows (fields tab-joined,
  * doubles written with `java.lang.Double.toString`).  CERES runs record
  * topics, kept topics, annotations and extractions; the two baselines
  * record their extractions.
  */
class GoldenResultSpec extends SparkSpec {
  private implicit lazy val s: SparkSession = spark

  private def row(p: Product): String = p.productIterator.map {
    case d: Double => java.lang.Double.toString(d)
    case x         => x.toString
  }.mkString("\t")

  private def digest(name: String, rows: Vector[Product]): String = {
    val sorted = rows.map(row).sorted
    val sha = MessageDigest.getInstance("SHA-256")
    sorted.foreach(r => sha.update((r + "\n").getBytes(UTF_8)))
    s"$name ${sorted.size} ${sha.digest().map(b => f"$b%02x").mkString}"
  }

  private def ceres(name: String, r: Ceres.Result): Vector[String] = Vector(
    digest(s"$name.topics", r.topics),
    digest(s"$name.keptTopics", r.keptTopics),
    digest(s"$name.annotations", r.annotations),
    digest(s"$name.extractions", r.extractions))

  private lazy val swde: Vector[String] = {
    val vd = Verticals.movie(nSites = 1, pagesPerSite = 40, seed = 18)
    val site = vd.sites.head
    val pages = spark.createDataset(site.pages)(Encoders.product)
    val sorted = site.pages.map(_.pageId).sorted
    val trainIds = sorted.take(sorted.size / 2).toSet
    val name = s"swde.${site.site}"
    Vector(
      digest(s"$name.Vertex++.extractions", VertexPP.run(pages, site.truth, vd.namePred)),
      digest(s"$name.CERES-Baseline.extractions", CeresBaseline.run(pages, trainIds, vd.kb)),
    ) ++
      ceres(s"$name.CERES-Topic", Ceres.run(pages, trainIds, vd.kb, Ceres.Config(mode = Ceres.TopicOnly))) ++
      ceres(s"$name.CERES-Full", Ceres.run(pages, trainIds, vd.kb, Ceres.Config(mode = Ceres.Full)))
  }

  private lazy val imdb: Vector[String] = {
    val r = ImdbExperiment.run(nFilms = 40, nEpisodes = 50, nPersons = 80,
      nPersonPages = 40, nTitlePages = 60)
    ceres("imdb.CERES-Full", r.full) ++ ceres("imdb.CERES-Topic", r.topic)
  }

  // themoviedb.org trains a model; sodasandpopcorn.com annotates too few
  // pages to train one.
  private lazy val lt = LongTailSites.build(0.15)
  private lazy val ltSites = Vector("themoviedb.org", "sodasandpopcorn.com")
    .map(name => lt.sites.find(_.profile.site == name).get)
  private lazy val ltResults = ltSites.map(LongTailExperiment.runSite(lt, _))

  test("golden: pipeline outputs at small sizes are unchanged") {
    val longtail = ltResults.flatMap(sr => ceres(s"longtail.${sr.profile.site}", sr.result))
    Golden.check("results.txt", (swde ++ imdb ++ longtail).mkString("", "\n", "\n"))
  }

  test("Figure 6's post-hoc filter equals extracting at the higher threshold") {
    val pages = spark.createDataset(ltSites.head.rendered.pages)(Encoders.product)
    assert(ltResults.head.result.extractions.nonEmpty)
    Vector(0.75, 0.95).foreach { t =>
      val rerun = Ceres.run(pages, Set.empty, lt.kb, Ceres.Config(threshold = t)).extractions
        .filterNot(_.predicate == RelationAnnot.NamePred)
        .map(e => (e.pageId, e.predicate, Normalize(e.value))).distinct
      assert(LongTailExperiment.relExtractions(ltResults.head, t).sorted == rerun.sorted, s"threshold $t")
    }
  }
}
