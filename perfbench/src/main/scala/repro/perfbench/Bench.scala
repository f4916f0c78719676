package repro.perfbench

import scala.collection.immutable.ListMap
import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession

import repro.exp.Par

/** The benchmark loop for one workload.
  *
  * Load shape: a closed loop.  A round sends the workload's fixed list of
  * operations to `exp.Par`; each of its `parallelism` threads takes the next
  * operation only when its current one is done.  One warm-up round (part of
  * set-up) fixes each operation's reference digest.  Then a fixed number of
  * measured rounds follows: `seconds` over the workload's nominal round time,
  * at least one.  A fixed count keeps the sample count, and so the
  * `op_tail_s` percentile, the same from run to run when the host slows.
  * With tracing on, as many traced rounds through [[TracedCeres]] follow the
  * untraced ones, and the per-layer metrics come from those.
  */
object Bench {

  case class Metric(value: Double, unit: String)

  case class Report(
      correct: Boolean,
      attempted: Int,
      failed: Int,
      metrics: ListMap[String, Metric],
      notes: Vector[String],
      /** The traced rounds' spans, by round. */
      spans: Vector[Vector[Tracer.Span]],
  )

  case class OpRun(op: Op, waitS: Double, latencyS: Double, result: Either[String, OpResult])
  case class Round(wallS: Double, runs: Vector[OpRun])
  /** A measured round with its span recorder (traced rounds) and its substrate counters. */
  case class Measured(round: Round, recorder: Option[Tracer.Recorder], counters: Map[String, Double])

  def round(ops: Vector[Op], t: Tracer, parallelism: Int): Round = {
    val t0 = System.nanoTime()
    val runs = Par.map(ops, parallelism) { op =>
      val s = System.nanoTime()
      val r =
        try Right(t.op(op.id)(op.run(t)))
        catch { case NonFatal(e) => Left(s"${op.id}: threw $e") }
      OpRun(op, (s - t0) / 1e9, (System.nanoTime() - s) / 1e9, r)
    }
    val r = Round((System.nanoTime() - t0) / 1e9, runs)
    Console.err.println(f"[perfbench] round of ${ops.size} ops: ${r.wallS}%.2f s " +
      f"(traced=${!(t eq Tracer.Off)}) " + runs.sortBy(-_.latencyS).map(r => f"${r.op.id}=${r.latencyS}%.1f").mkString(" "))
    r
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2)
    else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** Nearest-rank percentile of a sorted sample. */
  def percentile(sorted: Vector[Double], q: Double): Double =
    sorted(math.min(sorted.size - 1, math.max(0, math.ceil(q * sorted.size).toInt - 1)))

  /** The highest of p75..p99 with at least ten samples beyond it, or the
    * maximum when the sample is too small for any.
    */
  def tailLevel(n: Int): Double =
    Vector(0.99, 0.95, 0.9, 0.75).find(q => n * (1 - q) >= 10).getOrElse(1.0)

  def run(
      workload: Workload,
      seed: Long,
      seconds: Double,
      trace: Boolean,
      parallelism: Int,
      sparkStartS: Double = 0.0,
      genReps: Int = 3,
  )(implicit spark: SparkSession): Report = {
    val notes = Vector.newBuilder[String]

    // ---- set-up: generator (median of `genReps`), then one warm-up round --
    val gens = (1 to genReps).map { _ =>
      val t0 = System.nanoTime()
      val p  = workload.prepare(seed)
      (p, (System.nanoTime() - t0) / 1e9)
    }
    val prepared = gens.last._1
    val genS     = median(gens.map(_._2))
    val ops      = prepared.ops
    val warm     = round(ops, Tracer.Off, parallelism)
    val reference: Map[String, String] =
      warm.runs.collect { case OpRun(op, _, _, Right(r)) => op.id -> r.digest }.toMap
    val setupS = sparkStartS + genS + warm.wallS

    // ---- measured rounds ----------------------------------------------
    val substrate = if (trace) Some(new Substrate(spark)) else None
    val nRounds = math.max(1, math.round(seconds / workload.nominalRoundS).toInt)
    val untraced = Vector.fill(nRounds) {
      substrate match {
        case Some(s) =>
          val (r, counters) = s.sample(round(ops, Tracer.Off, parallelism))
          Measured(r, None, counters)
        case None => Measured(round(ops, Tracer.Off, parallelism), None, Map.empty)
      }
    }
    substrate.foreach(_.close())
    val traced = if (!trace) Vector.empty else Vector.fill(nRounds) {
      val rec = new Tracer.Recorder
      Measured(round(ops, rec, parallelism), Some(rec), Map.empty)
    }

    // ---- output check ---------------------------------------------------
    var attempted, failed = 0
    val qualities = (untraced ++ traced).map(_.round).map { r =>
      val errors = r.runs.flatMap {
        case OpRun(_, _, _, Left(err)) => Some(err)
        case OpRun(op, _, _, Right(res)) if !reference.get(op.id).contains(res.digest) =>
          Some(s"${op.id}: output digest ${res.digest.take(12)} differs from the warm-up round's")
        case _ => None
      }
      val ok = r.runs.collect { case OpRun(_, _, _, Right(res)) => res }
      val (quality, bands) =
        if (errors.isEmpty) workload.score(ok) else (Map.empty[String, Double], Vector.empty[String])
      attempted += r.runs.size
      // A round outside the shape bands fails all of its operations.
      failed += (if (bands.nonEmpty) r.runs.size else errors.size)
      notes ++= errors ++ bands
      quality
    }
    val quality = qualities.find(_.nonEmpty).getOrElse(Map.empty)

    // ---- end-to-end metrics ---------------------------------------------
    val pages     = ops.map(_.pages).sum
    val walls     = untraced.map(_.round.wallS)
    val wallS     = median(walls)
    val latencies = untraced.flatMap(_.round.runs.map(_.latencyS)).sorted
    val tailQ     = tailLevel(latencies.size)
    notes += f"ops/round=${ops.size} rounds=${untraced.size} pages/round=$pages " +
      f"round walls=${walls.map(w => f"$w%.2f").mkString(",")} op_tail_s=p${tailQ * 100}%.0f of ${latencies.size} samples " +
      f"gen=$genS%.2fs warm-up=${warm.wallS}%.2fs spark-start=$sparkStartS%.2fs"
    notes += "op median latency (s): " + untraced.flatMap(_.round.runs).groupMap(_.op.id)(_.latencyS)
      .map { case (id, ls) => id -> median(ls) }.toVector.sortBy(-_._2)
      .map { case (id, l) => f"$id=$l%.2f" }.mkString(" ")

    val metrics: ListMap[String, Metric] =
      if (!trace)
        ListMap(
          "wall_s"      -> Metric(wallS, "s"),
          "pages_per_s" -> Metric(pages / wallS, "1/s"),
          "setup_s"     -> Metric(setupS, "s"),
          "op_p50_s"    -> Metric(percentile(latencies, 0.5), "s"),
          "op_tail_s"   -> Metric(percentile(latencies, tailQ), "s"),
          "precision"   -> Metric(quality.getOrElse("precision", 0.0), "ratio"),
          "recall"      -> Metric(quality.getOrElse("recall", 0.0), "ratio"),
        )
      else perLayer(prepared, genS, quality, untraced, traced, parallelism)

    Report(failed == 0, attempted, failed, metrics, notes.result(), traced.flatMap(_.recorder).map(_.spans))
  }

  private def perLayer(
      prepared: Prepared,
      genS: Double,
      quality: Map[String, Double],
      untraced: Vector[Measured],
      traced: Vector[Measured],
      cores: Int,
  ): ListMap[String, Metric] = {
    val recs = traced.flatMap(m => m.recorder.map(m.round -> _))
    def self(name: String)  = median(recs.map(_._2.selfSeconds.getOrElse(name, 0.0)))
    def count(name: String) = median(recs.map(_._2.counts.getOrElse(name, 0.0)))
    def sub(name: String)   = median(untraced.map(_.counters.getOrElse(name, 0.0)))
    def r(a: Double, b: Double) = Workloads.ratio(a, b)
    val untracedWall = median(untraced.map(_.round.wallS))
    val trainS = self("core.trainer.train")
    val fits   = count("core.trainer.fits")
    ListMap(
      "web.gen_s"                   -> Metric(genS, "s"),
      "web.pages"                   -> Metric(prepared.pages.size.toDouble, "count"),
      "web.text_nodes"              -> Metric(prepared.textNodes.toDouble, "count"),
      "cluster.assign_s"            -> Metric(self("cluster.assign"), "s"),
      "cluster.clusters"            -> Metric(count("cluster.clusters"), "count"),
      "core.topicid.s"              -> Metric(self("core.topicid"), "s"),
      "core.topicid.topics"         -> Metric(count("core.topicid.topics"), "count"),
      "core.topicid.yield"          -> Metric(r(count("core.topicid.topics"), count("core.topicid.pages_in")), "ratio"),
      "core.annot.s"                -> Metric(self("core.annot"), "s"),
      "core.annot.annotations"      -> Metric(count("core.annot.annotations"), "count"),
      "core.annot.kept_frac"        -> Metric(r(count("core.annot.kept"), count("core.topicid.topics")), "ratio"),
      "core.featuregen.s"           -> Metric(self("core.featuregen"), "s"),
      "core.featuregen.strings"     -> Metric(count("core.featuregen.strings"), "count"),
      "core.trainer.examples_s"     -> Metric(self("core.trainer.examples"), "s"),
      "core.trainer.train_s"        -> Metric(trainS, "s"),
      "core.trainer.fits"           -> Metric(fits, "count"),
      "core.trainer.rows"           -> Metric(count("core.trainer.rows"), "count"),
      "core.trainer.s_per_fit"      -> Metric(r(trainS, fits), "s"),
      "core.extractor.s"            -> Metric(self("core.extractor"), "s"),
      "core.extractor.nodes_scored" -> Metric(count("core.extractor.nodes_scored"), "count"),
      "core.extractor.extractions"  -> Metric(count("core.extractor.extractions"), "count"),
      "core.extractor.subject_frac" -> Metric(r(count("core.extractor.subject_pages"), count("core.extractor.pages")), "ratio"),
      "baseline.vertexpp_s"         -> Metric(self("baseline.vertexpp"), "s"),
      "baseline.ceres_baseline_s"   -> Metric(self("baseline.ceres_baseline"), "s"),
      "baseline.vertexpp_f1"        -> Metric(quality.getOrElse("f1.vertexpp", 0.0), "ratio"),
      "baseline.ceres_baseline_f1"  -> Metric(quality.getOrElse("f1.ceres_baseline", 0.0), "ratio"),
      "exp.op_s"                    -> Metric(self("op"), "s"),
      "exp.par_wait_s"              -> Metric(median(recs.map(_._1.runs.map(_.waitS).sum)), "s"),
      "exp.score_s"                 -> Metric(self("exp.score"), "s"),
      "spark.jobs"                  -> Metric(sub("spark.jobs"), "count"),
      "spark.stages"                -> Metric(sub("spark.stages"), "count"),
      "spark.tasks"                 -> Metric(sub("spark.tasks"), "count"),
      "spark.task_busy_s"           -> Metric(sub("spark.task_busy_s"), "s"),
      "spark.core_util"             -> Metric(median(untraced.map(m =>
        r(m.counters.getOrElse("spark.task_busy_s", 0.0), m.round.wallS * cores))), "ratio"),
      "spark.shuffle_write_mb"      -> Metric(sub("spark.shuffle_write_mb"), "MB"),
      "jvm.gc_s"                    -> Metric(sub("jvm.gc_s"), "s"),
      "jvm.peak_heap_mb"            -> Metric(sub("jvm.peak_heap_mb"), "MB"),
      "trace.wall_s"                -> Metric(median(recs.map(_._1.wallS)), "s"),
      "trace.overhead_s"            -> Metric(median(recs.map(_._1.wallS)) - untracedWall, "s"),
    )
  }

  /** One JSON object per span: traced round, operation, span id, parent, name, start and end (ns). */
  def spanLines(r: Report): Vector[String] =
    for {
      (spans, i) <- r.spans.zipWithIndex
      sp         <- spans.sortBy(_.startNs)
    } yield s"""{"round": $i, "op": "${sp.opId}", "id": ${sp.id}, "parent": ${sp.parent}, """ +
      s""""name": "${sp.name}", "start_ns": ${sp.startNs}, "end_ns": ${sp.endNs}}"""

  def json(r: Report): String = {
    def num(d: Double) = if (d.isNaN || d.isInfinite) "0" else d.toString
    val ms = r.metrics.map { case (k, m) => s""""$k": {"value": ${num(m.value)}, "unit": "${m.unit}"}""" }
    s"""{"correct": ${r.correct}, "attempted": ${r.attempted}, "failed": ${r.failed}, "metrics": {${ms.mkString(", ")}}}"""
  }
}
