package repro.perfbench

import java.security.MessageDigest

import org.apache.spark.sql.{Dataset, Encoders, SparkSession}

import repro.baseline.{CeresBaseline, VertexPP}
import repro.core.{Ceres, Extractor, Metrics, RelationAnnot}
import repro.dom.PageDoc
import repro.exp.{ImdbExperiment, LongTailExperiment, SwdeExperiment}
import repro.kb.KnowledgeBase
import repro.web.{ImdbWorld, LongTailSites, Verticals}

/** One operation: one pipeline run for one (site, system) or (site, mode)
  * pair plus its scoring.  `run` takes the tracer: with tracing off it calls
  * the pipeline's own entry point, with tracing on the traced mirror.
  */
final case class Op(id: String, pages: Int, run: Tracer => OpResult)

/** What an operation returns: a digest of its output set, its quality counts
  * (CERES-Full only; other systems and modes leave them at zero), and
  * whatever the workload's round-level scoring needs.
  */
final case class OpResult(digest: String, tp: Long, fp: Long, fn: Long, detail: Any)

/** Generated inputs of one workload: its operations, and the pages and
  * text nodes the generator produced.
  */
final case class Prepared(ops: Vector[Op], pages: Vector[PageDoc]) {
  def textNodes: Int = pages.map(_.textNodes.size).sum
}

trait Workload {
  def name: String
  def defaultSeed: Long
  /** Round time on the 4-core host the benchmark was defined on; a run
    * measures `seconds / nominalRoundS` rounds.
    */
  def nominalRoundS: Double
  /** Generate the inputs for `seed` and build the Datasets the ops read. */
  def prepare(seed: Long)(implicit spark: SparkSession): Prepared
  /** Round-level quality metrics and the shape-band violations of one round. */
  def score(results: Vector[OpResult]): (Map[String, Double], Vector[String])
}

object Workloads {

  /** Workload sizes; `Tiny` is for the benchmark's self-test.
    *
    * @param ltScale   `LongTailSites.build` scale
    * @param swdePages pages per SWDE movie site (NBA sites get 3/4 of it)
    * @param imdb      `ImdbWorld.build` sizes (films, episodes, persons, person pages, title pages)
    * @param imdbSites independent IMDb sites (one world each)
    */
  case class Sizes(
      ltScale: Double,
      swdePages: Int,
      imdb: (Int, Int, Int, Int, Int),
      imdbSites: Int,
  )

  /** Two long-tail sites whose runs train: the clean general site Table 8
    * ranks near-perfect, and the financial site whose release-date chart
    * drags that predicate's precision down (Table 9).
    */
  val LongTailSubset = Vector("themoviedb.org", "the-numbers.com")

  val Full = Sizes(ltScale = 0.2, swdePages = 120, imdb = (100, 120, 240, 150, 150), imdbSites = 2)
  val Tiny = Sizes(ltScale = 0.05, swdePages = 24, imdb = (40, 50, 90, 40, 50), imdbSites = 1)

  def byName(name: String, sizes: Sizes): Workload = name match {
    case "longtail"      => new LongTail(sizes)
    case "swde"          => new Swde(sizes)
    case "imdb-annotate" => new ImdbAnnotate(sizes)
    case other           => throw new IllegalArgumentException(s"unknown workload $other")
  }

  /** The workloads `BENCHMARK.json` declares.  `longtail` runs by hand only:
    * its fits are too slow for the benchmark's run budget (README.md).
    */
  val Names: Vector[String] = Vector("swde", "imdb-annotate")

  def digest(lines: Iterable[String]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    lines.toVector.sorted.foreach(l => md.update((l + "\n").getBytes("UTF-8")))
    md.digest().map("%02x".format(_)).mkString
  }

  /** Extractions without their confidence: the confidence carries the
    * last-bit noise of Spark's tree aggregation, the extracted set does not.
    */
  def extractionDigest(ex: Iterable[Extractor.Extraction]): String =
    digest(ex.map(e => Vector(e.site, e.pageId, e.cluster, e.xpath, e.predicate, e.value, e.subject).mkString("\t")))

  def annotationDigest(r: Ceres.Result): String =
    digest(r.annotations.map(_.productIterator.mkString("\t")) ++
      r.keptTopics.map(t => s"kept\t${t.pageId}\t${t.entityId}\t${t.topicXpath}"))

  def dataset(pages: Vector[PageDoc])(implicit spark: SparkSession): Dataset[PageDoc] =
    spark.createDataset(pages)(Encoders.product)

  def ceres(pages: Dataset[PageDoc], trainIds: Set[String], kb: KnowledgeBase, cfg: Ceres.Config, t: Tracer)(
      implicit spark: SparkSession): Ceres.Result =
    if (t eq Tracer.Off) Ceres.run(pages, trainIds, kb, cfg) else TracedCeres.run(pages, trainIds, kb, cfg, t)

  def ratio(a: Double, b: Double): Double = if (b == 0) 0.0 else a / b

  def prf(rs: Vector[OpResult]): (Double, Double) = {
    val (tp, fp, fn) = (rs.map(_.tp).sum, rs.map(_.fp).sum, rs.map(_.fn).sum)
    (ratio(tp, tp + fp), ratio(tp, tp + fn))
  }

  // ---------------------------------------------------------------- longtail

  /** Long-tail crawl (§5.5, Table 8): one op per site, CERES-Full with no
    * train/eval split, as in `LongTailExperiment.run`.
    */
  final class LongTail(sizes: Sizes) extends Workload {
    val name        = "longtail"
    val defaultSeed = 66L
    val nominalRoundS = 14.0

    case class Detail(extractions: Int, annotations: Int)

    def prepare(seed: Long)(implicit spark: SparkSession): Prepared = {
      val lt  = LongTailSites.build(sizes.ltScale, seed)
      val cfg = Ceres.Config(mode = Ceres.Full, threshold = 0.5)
      val sites = lt.sites.filter(sd => LongTailSubset.contains(sd.profile.site))
      val ops = sites.map { sd =>
        val ds = dataset(sd.rendered.pages)
        // Recall counts the triples of predicates the KB can supervise.
        val truth = Metrics.truthTriples(sd.rendered.truth.filter(f => lt.kb.predicates(f.predicate)))
        Op(sd.profile.site, sd.rendered.pages.size, t => {
          val res = ceres(ds, Set.empty, lt.kb, cfg, t)
          t.span("exp.score") {
            val relAnnots = res.annotations.filterNot(_.predicate == RelationAnnot.NamePred)
            val sr = LongTailExperiment.SiteResult(sd.profile, sd.rendered.pages.size, res.keptTopics.size,
              relAnnots.size, res, Metrics.truthTriples(sd.rendered.truth))
            val row     = LongTailExperiment.table8Row(sr)
            val correct = if (row.extractions == 0) 0L else math.round(row.precision * row.extractions)
            // Extracted predicates are KB predicates, so `correct` counts within `truth`.
            OpResult(extractionDigest(res.extractions), correct, row.extractions - correct,
              truth.size - correct, Detail(row.extractions, row.annotations))
          }
        })
      }
      Prepared(ops, sites.flatMap(_.rendered.pages))
    }

    def score(results: Vector[OpResult]): (Map[String, Double], Vector[String]) = {
      val ds        = results.map(_.detail.asInstanceOf[Detail])
      val (p, r)    = prf(results)
      val exAnn     = ratio(ds.map(_.extractions).sum, ds.map(_.annotations).sum)
      val bands = Vector(
        Option.when(!(p > 0.70 && p <= 0.97))(f"T8 precision $p%.3f outside (0.70, 0.97]"),
        Option.when(!(exAnn > 1.5))(f"T8 extraction:annotation ratio $exAnn%.2f <= 1.5"),
      ).flatten
      (Map("precision" -> p, "recall" -> r), bands)
    }
  }

  // -------------------------------------------------------------------- swde

  /** SWDE (§5.3, Table 3) on the first site of the movie and NBA-player
    * verticals, the two whose Table 3 shape the bench suite pins: 50/50
    * train/eval split; one op per (site, system) for Vertex++,
    * CERES-Baseline and CERES-Full, run and scored as in `SwdeExperiment.run`.
    */
  final class Swde(sizes: Sizes) extends Workload {
    val name        = "swde"
    val defaultSeed = 7L
    val nominalRoundS = 18.0
    val systems     = Vector("Vertex++", "CERES-Baseline", "CERES-Full")
    val verticals   = Vector("movie", "nbaplayer")

    def prepare(seed: Long)(implicit spark: SparkSession): Prepared = {
      // The two verticals exactly as `Verticals.all(pagesPerSite, seed)` builds them.
      val vds = Vector(
        Verticals.movie(pagesPerSite = sizes.swdePages, seed = seed + 11),
        Verticals.nbaplayer(pagesPerSite = math.max(20, sizes.swdePages * 3 / 4), seed = seed + 22))
      val ops = vds.flatMap { vd =>
        val site     = vd.sites.head
        val ds       = dataset(site.pages)
        val kbPreds  = vd.kb.predicates + vd.namePred
        val sorted   = site.pages.map(_.pageId).sorted
        val trainIds = sorted.take(sorted.size / 2).toSet
        val evalIds  = sorted.toSet -- trainIds
        val namePredOf = (_: String) => vd.namePred
        systems.map { system =>
          // Distantly supervised systems are scored on KB predicates only.
          val truth = if (system == "Vertex++") site.truth else site.truth.filter(t => kbPreds(t.predicate))
          def restrict(m: Map[String, Metrics.PRF]): Map[String, Metrics.PRF] =
            if (system == "Vertex++") m
            else {
              val per = (m - "ALL").filter { case (p, _) => kbPreds(p) }
              per + ("ALL" -> Metrics.PRF("ALL", per.values.map(_.tp).sum,
                per.values.map(_.fp).sum, per.values.map(_.fn).sum))
            }
          Op(s"${site.site}/$system", site.pages.size, t => {
            val (ex, annotated) = system match {
              case "Vertex++" =>
                (t.span("baseline.vertexpp")(VertexPP.run(ds, site.truth, vd.namePred)), 2)
              case "CERES-Baseline" =>
                (t.span("baseline.ceres_baseline")(CeresBaseline.run(ds, trainIds, vd.kb)), -1)
              case _ =>
                val r = ceres(ds, trainIds, vd.kb, Ceres.Config(mode = Ceres.Full), t)
                (r.extractions, r.keptTopics.size)
            }
            t.span("exp.score") {
              val run = SwdeExperiment.SiteRun(vd.vertical, site.site, system,
                restrict(Metrics.pageHitPRF(ex, truth, namePredOf, evalIds)),
                restrict(Metrics.extractionPRF(ex, truth, namePredOf, evalIds)),
                annotated, trainIds.size)
              val all = if (system == "CERES-Full") run.mention("ALL") else Metrics.PRF("ALL", 0, 0, 0)
              OpResult(extractionDigest(ex), all.tp, all.fp, all.fn, run)
            }
          })
        }
      }
      Prepared(ops, vds.flatMap(_.sites.head.pages))
    }

    def score(results: Vector[OpResult]): (Map[String, Double], Vector[String]) = {
      val t3 = SwdeExperiment.table3(results.map(_.detail.asInstanceOf[SwdeExperiment.SiteRun]))
        .map { case (v, s, f) => (v, s) -> f }.toMap.withDefaultValue(0.0)
      def mean(s: String) = verticals.map(v => t3((v, s))).sum / verticals.size
      val (p, r) = prf(results)
      // The Table 3 shape assertions of the bench suite for these verticals.
      val bands = verticals.flatMap { v =>
        val (full, vpp, base) = (t3((v, "CERES-Full")), t3((v, "Vertex++")), t3((v, "CERES-Baseline")))
        Vector(
          Option.when(!(full > 0.9))(f"T3 $v CERES-Full F1 $full%.3f <= 0.9"),
          Option.when(!(full >= vpp - 0.1))(f"T3 $v CERES-Full F1 $full%.3f < Vertex++ $vpp%.3f - 0.1"),
          Option.when(!(base <= full + 0.05))(f"T3 $v CERES-Baseline F1 $base%.3f > CERES-Full $full%.3f + 0.05"))
      }.flatten
      (Map("precision" -> p, "recall" -> r, "f1.vertexpp" -> mean("Vertex++"),
        "f1.ceres_baseline" -> mean("CERES-Baseline")), bands)
    }
  }

  // ----------------------------------------------------------- imdb-annotate

  /** IMDb distant-supervision annotation (§5.4, Tables 6 and 7): one op per
    * (site, mode) for Full and TopicOnly with no train/eval split and
    * `minAnnotatedPages = Int.MaxValue`, so every cluster stops after
    * annotation: Algorithms 1 and 2 only, no training or extraction.
    */
  final class ImdbAnnotate(sizes: Sizes) extends Workload {
    val name        = "imdb-annotate"
    val defaultSeed = 55L
    val nominalRoundS = 3.0

    case class Detail(mode: Ceres.Mode, byDomain: Map[String, Metrics.PRF])

    def prepare(seed: Long)(implicit spark: SparkSession): Prepared = {
      val (nFilms, nEpisodes, nPersons, nPersonPages, nTitlePages) = sizes.imdb
      val worlds = (0 until sizes.imdbSites).map { w =>
        ImdbWorld.build(nFilms, nEpisodes, nPersons, nPersonPages, nTitlePages, seed + 1000L * w)
      }.toVector
      val ops = for {
        (imdb, w) <- worlds.zipWithIndex
        mode      <- Vector[Ceres.Mode](Ceres.Full, Ceres.TopicOnly)
      } yield {
        val ds  = dataset(imdb.site.pages)
        val cfg = Ceres.Config(mode = mode, minAnnotatedPages = Int.MaxValue)
        Op(s"imdb$w/$mode", imdb.site.pages.size, t => {
          val res = ceres(ds, Set.empty, imdb.kb, cfg, t)
          t.span("exp.score") {
            val run = ImdbExperiment.Run(imdb, Set.empty, Set.empty, res, res)
            val byDomain = Vector("Person", "Film/TV").map(d => d -> ImdbExperiment.table6(run, res, d)("ALL")).toMap
            val all = if (mode == Ceres.Full) byDomain.values.toVector else Vector.empty
            OpResult(annotationDigest(res), all.map(_.tp).sum, all.map(_.fp).sum, all.map(_.fn).sum,
              Detail(mode, byDomain))
          }
        })
      }
      Prepared(ops, worlds.flatMap(_.site.pages))
    }

    def score(results: Vector[OpResult]): (Map[String, Double], Vector[String]) = {
      val ds = results.map(_.detail.asInstanceOf[Detail])
      def pooled(mode: Ceres.Mode, dom: String) = {
        val ms = ds.filter(_.mode == mode).map(_.byDomain(dom))
        Metrics.PRF(dom, ms.map(_.tp).sum, ms.map(_.fp).sum, ms.map(_.fn).sum)
      }
      // The Table 6 shape assertions of the bench suite.
      val bands = Vector("Person", "Film/TV").flatMap { dom =>
        val (full, topic) = (pooled(Ceres.Full, dom), pooled(Ceres.TopicOnly, dom))
        Vector(
          Option.when(!(full.p > topic.p))(f"T6 $dom Full p ${full.p}%.3f <= Topic p ${topic.p}%.3f"),
          Option.when(!(topic.r >= full.r - 0.05))(f"T6 $dom Topic r ${topic.r}%.3f < Full r ${full.r}%.3f - 0.05"),
          Option.when(!(full.p > 0.8))(f"T6 $dom Full p ${full.p}%.3f <= 0.8"))
      }.flatten
      val (p, r) = prf(results)
      (Map("precision" -> p, "recall" -> r), bands)
    }
  }
}
