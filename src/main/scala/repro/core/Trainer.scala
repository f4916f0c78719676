package repro.core

import scala.util.Random

import breeze.linalg.DenseVector
import breeze.optimize.{CachedDiffFunction, DiffFunction, LBFGS}
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{Dataset, SparkSession}

import repro.dom.{PageDoc, PageTree, XPaths}
import repro.util.FeatureHash

/** Training-set assembly and the multinomial logistic-regression node
  * classifier (§4.1–4.2).
  *
  * Positives come from the (noisy) annotations; for each positive, `negRatio`
  * unlabeled nodes of the same page are sampled as "OTHER" (paper: r = 3).
  * Nodes that differ from a multi-positive list only at its varying XPath
  * indices are excluded from negative sampling — they are likely unlabeled
  * members of the same value list (§4.1).
  *
  * The model mirrors the paper's scikit-learn setup: multinomial LR over
  * hashed binary features, fitted locally with LBFGS and an L2 penalty.  The
  * training sets are small (10^3–10^4 rows), so the fit runs on the driver
  * with breeze's LBFGS over the features actually seen, not as one Spark job
  * per iteration.  It minimises what Spark ML's multinomial
  * `LogisticRegression` minimises with `standardization = false`: mean
  * log-loss plus `0.5 * RegParam * |W|^2` (`RegParam = 1e-4`), intercepts
  * unpenalised, starting from zero weights and centred log class priors.
  */
object Trainer {

  val OtherLabel = "OTHER"

  /** Negatives sampled per positive (§4.1, r = 3). */
  val NegRatio = 3

  /** Base seed of the per-page negative sampling. */
  val Seed = 17L

  case class Example(label: String, features: Seq[String])

  /** Serializable fitted model: softmax scorer over hashed features.
    * `iterations` and `finalLoss` are the LBFGS iteration count and the
    * objective at the returned weights; a classifier built by hand has
    * `finalLoss = NaN`.
    */
  final class NodeClassifier(
      val labels: Vector[String],
      coef: Array[Array[Double]],  // labels.size x FeatureHash.Dim
      intercept: Array[Double],
      val iterations: Int = 0,
      val finalLoss: Double = Double.NaN,
  ) extends Serializable {
    def probabilities(features: Iterable[String]): Array[Double] = {
      val idx = FeatureHash.encode(features)
      val margins = Array.tabulate(labels.size) { k =>
        var s = intercept(k)
        val row = coef(k)
        var i = 0
        while (i < idx.length) { s += row(idx(i)); i += 1 }
        s
      }
      val mx  = margins.max
      val exp = margins.map(m => math.exp(m - mx))
      val z   = exp.sum
      exp.map(_ / z)
    }

    /** (label, probability) of the most probable class. */
    def predict(features: Iterable[String]): (String, Double) = {
      val p = probabilities(features)
      val k = p.indices.maxBy(p(_))
      (labels(k), p(k))
    }
  }

  /** Build labeled examples from one corpus slice + its annotations. */
  def buildExamples(
      pages: Dataset[PageDoc],
      annotations: Vector[RelationAnnot.Annotation],
      frequentB: Broadcast[Set[String]],
      negRatio: Int = NegRatio,
      seed: Long = Seed,
  )(implicit spark: SparkSession): Dataset[Example] = {
    import spark.implicits._
    val byPage = annotations.groupBy(_.pageId)
    pages.mapPartitions { it =>
      val freq = frequentB.value
      it.flatMap { p =>
        byPage.get(p.pageId) match {
          case None => Iterator.empty
          case Some(anns) =>
            val tree = new PageTree(p)
            val posByPath = anns.groupBy(_.xpath).map { case (x, as) =>
              x -> as.map(_.predicate).distinct
            }
            val positives = posByPath.toVector.sortBy(_._1).flatMap { case (xpath, preds) =>
              tree.nodeAt(xpath).toVector.flatMap(n =>
                preds.map(pred => Example(pred, FeatureGen.nodeFeatures(tree, n.id, freq))))
            }
            // Exclusion templates: >= 2 positives of one predicate sharing a
            // template => the whole list-template is off limits as negatives.
            val exclTemplates: Set[String] = anns
              .groupBy(_.predicate)
              .values
              .flatMap { as =>
                as.map(a => XPaths.template(a.xpath))
                  .groupBy(identity)
                  .collect { case (t, xs) if xs.size >= 2 => t }
              }
              .toSet
            val labeled = posByPath.keySet
            val candidates = p.textNodes
              .filter(n => !labeled.contains(n.xpath) && !exclTemplates.contains(XPaths.template(n.xpath)))
            val rng  = new Random(seed ^ p.pageId.hashCode.toLong)
            val negs = rng
              .shuffle(candidates)
              .take(negRatio * positives.size)
              .map(n => Example(OtherLabel, FeatureGen.nodeFeatures(tree, n.id, freq)))
            (positives ++ negs).iterator
        }
      }
    }
  }

  /** Fit the multinomial LR on the driver and scatter the weights back into
    * the hashed feature space for broadcast.
    *
    * Hashing runs on the executors; the `(label, indices)` rows are then
    * collected and put in a canonical order, so the fit does not depend on
    * partitioning or on the order `collect()` returns rows in.  Features
    * present in every row have zero variance; as in Spark ML they get no
    * weight and the intercepts carry them.  With one class (no rows, or
    * `OTHER` rows only) the all-zero model is the exact minimiser and is
    * returned without optimisation.
    */
  def train(
      examples: Dataset[Example],
      maxIter: Int = 40,
  )(implicit spark: SparkSession): NodeClassifier = {
    import spark.implicits._
    val rows = examples.map(ex => (ex.label, FeatureHash.encode(ex.features))).collect().sorted(rowOrder)
    val labels = (rows.map(_._1).toVector :+ OtherLabel).distinct.sorted
    if (labels.size == 1) new NodeClassifier(labels, Array.ofDim(1, FeatureHash.Dim), Array(0.0), 0, 0.0)
    else fit(rows, labels, maxIter)
  }

  /** L2 penalty on the feature weights, Spark ML's `regParam`. */
  private val RegParam = 1e-4

  private val rowOrder: Ordering[(String, Array[Int])] = (a, b) => {
    val c = a._1.compareTo(b._1)
    if (c != 0) c else java.util.Arrays.compare(a._2, b._2)
  }

  private def fit(
      rows: Array[(String, Array[Int])],
      labels: Vector[String],
      maxIter: Int,
  ): NodeClassifier = {
    val k  = labels.size
    val n  = rows.length
    val df = new Array[Int](FeatureHash.Dim)
    rows.foreach(_._2.foreach(i => df(i) += 1))
    val seen  = df.indices.filter(i => df(i) > 0 && df(i) < n).toArray
    val local = Array.fill(FeatureHash.Dim)(-1)
    seen.indices.foreach(j => local(seen(j)) = j)
    val labelIndex = labels.zipWithIndex.toMap
    val f = seen.length
    val y = rows.map(r => labelIndex(r._1))
    val x = rows.map(r => r._2.map(i => local(i)).filter(_ >= 0) :+ f)

    val init = new Array[Double]((f + 1) * k)
    val logPriors = Array.tabulate(k)(c => math.log1p(y.count(_ == c).toDouble))
    val meanPrior = logPriors.sum / k
    (0 until k).foreach(c => init(f * k + c) = logPriors(c) - meanPrior)

    val lbfgs = new LBFGS[DenseVector[Double]](maxIter = maxIter, m = 10, tolerance = 1e-6)
    val state = lbfgs.minimizeAndReturnState(
      new CachedDiffFunction(new SoftmaxLoss(y, x, k, f, RegParam)), DenseVector(init))
    val theta = state.x.toArray
    val coef  = Array.ofDim[Double](k, FeatureHash.Dim)
    (0 until f).foreach(j => (0 until k).foreach(c => coef(c)(seen(j)) = theta(j * k + c)))
    new NodeClassifier(labels, coef, theta.slice(f * k, (f + 1) * k), state.iter, state.value)
  }

  /** Mean multinomial log-loss plus `0.5 * reg * |W|^2` over binary sparse
    * rows.  Parameters are laid out feature-major, `theta(j * k + c)` for
    * feature `j` and class `c`.  Every row ends with the bias column `f`,
    * whose `k` weights are the intercepts and are not penalised.
    */
  private final class SoftmaxLoss(y: Array[Int], x: Array[Array[Int]], k: Int, f: Int, reg: Double)
      extends DiffFunction[DenseVector[Double]] {
    def calculate(theta: DenseVector[Double]): (Double, DenseVector[Double]) = {
      val w = theta.toArray
      val g = new Array[Double](w.length)
      val m = new Array[Double](k)
      var loss = 0.0
      for (i <- y.indices) {
        val xi = x(i)
        java.util.Arrays.fill(m, 0.0)
        for (j <- xi) { var c = 0; while (c < k) { m(c) += w(j * k + c); c += 1 } }
        val mx = m.max
        val my = m(y(i))
        var c = 0
        while (c < k) { m(c) = math.exp(m(c) - mx); c += 1 }
        val z = m.sum
        loss += mx + math.log(z) - my
        // m becomes the gradient of the row's loss in its margins: p - onehot(y).
        c = 0
        while (c < k) { m(c) /= z; c += 1 }
        m(y(i)) -= 1.0
        for (j <- xi) { c = 0; while (c < k) { g(j * k + c) += m(c); c += 1 } }
      }
      loss /= y.length
      for (j <- g.indices) g(j) /= y.length
      for (j <- 0 until f * k) { loss += 0.5 * reg * w(j) * w(j); g(j) += reg * w(j) }
      (loss, DenseVector(g))
    }
  }
}
